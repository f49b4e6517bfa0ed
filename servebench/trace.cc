#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "bench_util.h"

namespace servebench::trace {

std::atomic<bool> g_enabled{false};

namespace {

constexpr uint64_t kMaxRawSpans = 200'000;

struct OpenSpan {
  const char* name;
  Layer layer;
  int64_t start_ns;
  int64_t child_ns;
  uint64_t id;
  uint64_t parent;
};

struct RawSpan {
  const char* name;
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
};

struct ThreadState {
  uint64_t thread_index = 0;
  uint64_t next_local = 1;
  std::vector<OpenSpan> stack;
  double self_ns[kNumLayers] = {};
  uint64_t spans = 0;
  std::vector<RawSpan> raw;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;  // guarded above
std::atomic<uint64_t> g_raw_kept{0};
// The outermost span the main thread has open: the cause of root
// spans opened on other threads (pool workers run what the main
// thread's Submit/Wait span started).
std::atomic<uint64_t> g_root_cause{0};

thread_local ThreadState* t_state = nullptr;

ThreadState* State() {
  if (t_state == nullptr) {
    auto st = std::make_unique<ThreadState>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    st->thread_index = g_threads.size() + 1;
    t_state = st.get();
    g_threads.push_back(std::move(st));
  }
  return t_state;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGen:
      return "gen";
    case Layer::kIngest:
      return "ingest";
    case Layer::kExec:
      return "exec";
    case Layer::kStream:
      return "stream";
    case Layer::kOps:
      return "ops";
    case Layer::kFeedback:
      return "feedback";
  }
  return "?";
}

void RegisterMainThread() { State(); }

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void Begin(const char* name, Layer layer) {
  ThreadState* st = State();
  const uint64_t id = (st->thread_index << 40) | st->next_local++;
  uint64_t parent = st->stack.empty()
                        ? g_root_cause.load(std::memory_order_relaxed)
                        : st->stack.back().id;
  if (st->stack.empty() && st->thread_index == 1) {
    g_root_cause.store(id, std::memory_order_relaxed);
  }
  st->stack.push_back({name, layer, NowNs(), 0, id, parent});
}

void End() {
  ThreadState* st = State();
  if (st->stack.empty()) return;
  const int64_t end = NowNs();
  OpenSpan s = st->stack.back();
  st->stack.pop_back();
  const int64_t dur = end - s.start_ns;
  st->self_ns[static_cast<int>(s.layer)] +=
      static_cast<double>(dur - s.child_ns);
  ++st->spans;
  if (!st->stack.empty()) {
    st->stack.back().child_ns += dur;
  } else if (st->thread_index == 1) {
    g_root_cause.store(0, std::memory_order_relaxed);
  }
  if (g_raw_kept.load(std::memory_order_relaxed) < kMaxRawSpans) {
    g_raw_kept.fetch_add(1, std::memory_order_relaxed);
    st->raw.push_back({s.name, s.layer, s.start_ns, end, s.id, s.parent});
  }
}

Totals Collect() {
  Totals out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& st : g_threads) {
    for (int l = 0; l < kNumLayers; ++l) out.self_ns[l] += st->self_ns[l];
    out.spans += st->spans;
  }
  return out;
}

void ResetTotals() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& st : g_threads) {
    for (double& v : st->self_ns) v = 0;
    st->spans = 0;
  }
}

bool WriteRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& st : g_threads) {
    for (const RawSpan& s : st->raw) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"layer\": \"%s\", \"thread\": %llu, "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"id\": %llu, "
                   "\"parent\": %llu}\n",
                   s.name, LayerName(s.layer),
                   static_cast<unsigned long long>(st->thread_index),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench::trace
