// join_shards: a sharded windowed join, closed loop. Two seeded
// CallbackSource generators (no sockets) → two Exchanges → 4 windowed
// SymmetricHashJoin shards → ShardMerge → sink, on a 2-worker pool.
// Punctuation closes every tumbling window on both inputs, so join
// state stays bounded. exec, stream and ops carry all the work here,
// with ~10 tasks contending for 2 workers, while ingest and feedback
// sit idle: scheduler and join/exchange changes show here and must not
// move edge_fanin.
//
// A pass is one fresh plan and pool that joins kWindowsPerPass windows;
// a run is as many passes as fit in --seconds, and each end-to-end
// figure is the median over its passes. The traced run adds one long
// pass, kLongPassFactor times longer, whose backlog and peak RSS show
// what the unbounded inter-operator queues hold when a pass does not
// end soon.
//
// Per window and side the generators emit kTuplesPerWindow tuples whose
// keys are a pure function of (seed, pass, window, side, index), so
// the expected join count and checksum of every window are computed
// up front — before the pass's setup clock starts — and checked at
// the sink as results arrive.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "exec/scheduler.h"
#include "ops/callback_source.h"
#include "ops/exchange.h"
#include "ops/sink.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

using namespace nstream;

constexpr int kShards = 4;
constexpr int kWorkers = 2;
constexpr int64_t kTuplesPerWindow = 2048;  // per side
constexpr uint64_t kKeySpace = 4096;
constexpr int64_t kWindowsPerPass = 8;
constexpr int64_t kLongPassFactor = 16;
constexpr TimeMs kWindowMs = 1000;  // data time
constexpr uint64_t kPayloadMix = 0x9e3779b97f4a7c15ULL;

SchemaPtr SideSchema(int side) {
  static SchemaPtr left = Schema::Make({{"k", ValueType::kInt64},
                                        {"ts", ValueType::kTimestamp},
                                        {"p", ValueType::kInt64}});
  static SchemaPtr right = Schema::Make({{"k", ValueType::kInt64},
                                         {"rts", ValueType::kTimestamp},
                                         {"q", ValueType::kInt64}});
  return side == 0 ? left : right;
}

int64_t KeyOf(uint64_t seed, int pass, int64_t w, int side, int64_t i) {
  return static_cast<int64_t>(Mix(seed, static_cast<uint64_t>(pass),
                                  static_cast<uint64_t>(w) * 2 +
                                      static_cast<uint64_t>(side),
                                  static_cast<uint64_t>(i)) %
                              kKeySpace);
}
int64_t PayloadOf(int64_t w, int side, int64_t i) {
  return (w * kTuplesPerWindow + i) * 2 + side;
}
Tuple MakeTuple(uint64_t seed, int pass, int64_t w, int side, int64_t i) {
  return TupleBuilder()
      .I64(KeyOf(seed, pass, w, side, i))
      .Ts(w * kWindowMs + i * kWindowMs / kTuplesPerWindow)
      .I64(PayloadOf(w, side, i))
      .Build();
}
Punctuation CloseWindow(int64_t w) {
  return Punctuation(PunctPattern::AllWildcard(3).With(
      1, AttrPattern::Le(Value::Timestamp((w + 1) * kWindowMs - 1))));
}

struct WindowOracle {
  uint64_t count = 0;
  uint64_t checksum = 0;
};

// Expected join count and checksum of each window: sum over keys of
// |L_k|·|R_k| pairs, each contributing p·kPayloadMix + q.
std::vector<WindowOracle> ComputeOracle(uint64_t seed, int pass,
                                        int64_t windows) {
  std::vector<WindowOracle> out(static_cast<size_t>(windows));
  std::vector<uint64_t> cnt[2], sum[2];
  for (int s = 0; s < 2; ++s) {
    cnt[s].assign(kKeySpace, 0);
    sum[s].assign(kKeySpace, 0);
  }
  for (int64_t w = 0; w < windows; ++w) {
    for (int s = 0; s < 2; ++s) {
      std::fill(cnt[s].begin(), cnt[s].end(), 0);
      std::fill(sum[s].begin(), sum[s].end(), 0);
      for (int64_t i = 0; i < kTuplesPerWindow; ++i) {
        const uint64_t k = static_cast<uint64_t>(KeyOf(seed, pass, w, s, i));
        ++cnt[s][k];
        sum[s][k] += static_cast<uint64_t>(PayloadOf(w, s, i));
      }
    }
    WindowOracle& o = out[static_cast<size_t>(w)];
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      o.count += cnt[0][k] * cnt[1][k];
      o.checksum += sum[0][k] * cnt[1][k] * kPayloadMix + sum[1][k] * cnt[0][k];
    }
  }
  return out;
}

// One side's generator: runs as the CallbackSource body on whichever
// worker the pool gives the source task.
struct SideGen {
  uint64_t seed = 0;
  int pass = 0;
  int side = 0;
  int64_t w = 0;
  int64_t i = 0;
  int64_t first_ns = 0;
  double first_cpu = 0;
  std::vector<int64_t> last_ns;  // per window: its last tuple generated
  std::atomic<uint64_t>* generated = nullptr;

  std::optional<TimedElement> Next() {
    trace::Span span("gen.callback", trace::Layer::kGen);
    if (w >= static_cast<int64_t>(last_ns.size())) return std::nullopt;
    if (first_ns == 0) {
      first_ns = NowNs();
      first_cpu = ProcessCpuSeconds();
    }
    if (i == kTuplesPerWindow) {
      i = 0;
      const int64_t closed = w++;
      return TimedElement::OfPunct(closed * kWindowMs + kWindowMs - 1,
                                   CloseWindow(closed));
    }
    Tuple t = MakeTuple(seed, pass, w, side, i);
    if (++i == kTuplesPerWindow) {
      last_ns[static_cast<size_t>(w)] = NowNs();
    }
    generated->fetch_add(1, std::memory_order_relaxed);
    return TimedElement::OfTuple(w * kWindowMs, std::move(t));
  }
};

struct JoinSink {
  const std::vector<WindowOracle>* expect = nullptr;
  std::vector<WindowOracle> got;
  std::vector<int64_t> complete_ns;
  int64_t windows_complete = 0;
  uint64_t stray = 0;  // results outside the pass's windows
  int64_t done_ns = 0;
  double done_cpu = 0;
  std::atomic<int64_t> published_windows{0};
  std::atomic<bool> finished{false};

  void OnTuple(const Tuple& t) {
    trace::Span span("sink.driver", trace::Layer::kOps);
    const int64_t w = t.value(1).timestamp_value() / kWindowMs;
    if (w < 0 || w >= static_cast<int64_t>(got.size())) {
      ++stray;
      return;
    }
    WindowOracle& g = got[static_cast<size_t>(w)];
    ++g.count;
    g.checksum += static_cast<uint64_t>(t.value(2).int64_value()) * kPayloadMix +
                  static_cast<uint64_t>(t.value(4).int64_value());
    if (g.count == (*expect)[static_cast<size_t>(w)].count) {
      complete_ns[static_cast<size_t>(w)] = NowNs();
      published_windows.store(++windows_complete, std::memory_order_relaxed);
      if (windows_complete == static_cast<int64_t>(got.size())) {
        done_ns = NowNs();
        done_cpu = ProcessCpuSeconds();
        finished.store(true, std::memory_order_release);
      }
    }
  }
};

struct PassResult {
  bool ok = false;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t tuples = 0;
  std::vector<double> latency_ms;
  double backlog_peak = 0;
  double queue_pages_peak = 0;
  SchedulerStats sched;
  std::vector<uint64_t> shard_tuples_in;
  uint64_t state_purged = 0;
};

PassResult RunPass(const Options& opts, int pass, int64_t windows,
                   int workers, bool sample_queues, Report* report) {
  PassResult out;
  std::vector<WindowOracle> oracle =
      ComputeOracle(opts.seed, pass, windows);
  bool nonempty = true;
  for (const WindowOracle& o : oracle) nonempty = nonempty && o.count > 0;
  if (!nonempty) {
    // Every window must complete at the sink for the pass to end.
    report->Check(false, "join: generated a window with no join result");
    return out;
  }

  const int64_t setup0 = NowNs();
  std::atomic<uint64_t> generated{0};
  SideGen gens[2];
  for (int s = 0; s < 2; ++s) {
    gens[s].seed = opts.seed;
    gens[s].pass = pass;
    gens[s].side = s;
    gens[s].last_ns.assign(static_cast<size_t>(windows), 0);
    gens[s].generated = &generated;
  }
  JoinSink sink_state;
  sink_state.expect = &oracle;
  sink_state.got.assign(static_cast<size_t>(windows), {});
  sink_state.complete_ns.assign(static_cast<size_t>(windows), 0);

  auto plan = std::make_unique<QueryPlan>();
  auto* left = plan->AddOp(std::make_unique<CallbackSource>(
      "gen.left", SideSchema(0), [&gens] { return gens[0].Next(); }));
  auto* right = plan->AddOp(std::make_unique<CallbackSource>(
      "gen.right", SideSchema(1), [&gens] { return gens[1].Next(); }));
  JoinOptions jo;
  jo.left_keys = {0};
  jo.right_keys = {0};
  jo.left_ts = 1;
  jo.right_ts = 1;
  jo.window_join = true;
  jo.window = WindowSpec{kWindowMs, kWindowMs};
  Result<PartitionedJoinPlan> pj =
      MakePartitionedJoin(plan.get(), "join", jo, kShards);
  NSTREAM_CHECK(pj.ok());
  auto* sink = plan->AddOp(std::make_unique<CollectorSink>(
      "sink", CollectorSinkOptions{.record_tuples = false},
      [&sink_state](const Tuple& t, TimeMs) {
        sink_state.OnTuple(t);
        return std::vector<FeedbackPunctuation>();
      }));
  NSTREAM_CHECK(plan->Connect(*left, 0, *pj.value().left_exchange, 0).ok());
  NSTREAM_CHECK(plan->Connect(*right, 0, *pj.value().right_exchange, 0).ok());
  NSTREAM_CHECK(plan->Connect(pj.value().merge->id(), 0, sink->id(), 0).ok());
  NSTREAM_CHECK(plan->Finalize().ok());

  PooledExecutorOptions eopts;
  eopts.pool_size = workers;
  auto exec = std::make_unique<PooledExecutor>(eopts);
  Result<QueryId> id = [&] {
    trace::Span span("exec.submit", trace::Layer::kExec);
    return exec->Submit(plan.get());
  }();
  if (!id.ok()) {
    report->Check(false, "join: submit failed: " + id.status().ToString());
    return out;
  }
  // Setup ends where the first tuple is generated (a worker picks the
  // source task up right after Submit enqueues it).
  const int64_t deadline = NowNs() + 60'000'000'000;
  while (!sink_state.finished.load(std::memory_order_acquire) &&
         NowNs() < deadline) {
    pollfd none{};
    ::poll(&none, 0, 1);
    const double backlog =
        static_cast<double>(generated.load(std::memory_order_relaxed)) -
        static_cast<double>(
            sink_state.published_windows.load(std::memory_order_relaxed)) *
            2.0 * kTuplesPerWindow;
    out.backlog_peak = std::max(out.backlog_peak, backlog);
    if (sample_queues) {
      trace::Span span("stream.stall_report", trace::Layer::kStream);
      out.queue_pages_peak = std::max(
          out.queue_pages_peak, QueuedPages(exec->scheduler()->StallReport()));
    }
  }
  Status st;
  {
    trace::Span span("exec.wait", trace::Layer::kExec);
    st = exec->Wait(id.value(), /*timeout_ms=*/30'000);
  }
  out.sched = exec->scheduler()->stats();
  exec.reset();

  const bool finished = sink_state.finished.load(std::memory_order_acquire);
  report->Check(st.ok() && finished,
                "join: pass did not complete: " + st.ToString());
  report->Check(sink_state.stray == 0, "join: results outside the pass");
  for (int64_t w = 0; w < windows; ++w) {
    const WindowOracle& e = oracle[static_cast<size_t>(w)];
    const WindowOracle& g = sink_state.got[static_cast<size_t>(w)];
    report->Check(e.count == g.count && e.checksum == g.checksum,
                  "join: window " + std::to_string(w) + " expected " +
                      std::to_string(e.count) + " results, got " +
                      std::to_string(g.count) + " (or checksum differs)");
  }
  if (!finished || !st.ok()) return out;

  const SideGen& lead =
      gens[0].first_ns <= gens[1].first_ns ? gens[0] : gens[1];
  const int64_t first = lead.first_ns;
  out.ok = true;
  out.setup_s = static_cast<double>(first - setup0) / 1e9;
  out.tuples = 2ull * static_cast<uint64_t>(windows) * kTuplesPerWindow;
  out.wall_s = static_cast<double>(sink_state.done_ns - first) / 1e9;
  out.cpu_s = sink_state.done_cpu - lead.first_cpu;
  for (int64_t w = 0; w < windows; ++w) {
    const size_t i = static_cast<size_t>(w);
    const int64_t last = std::max(gens[0].last_ns[i], gens[1].last_ns[i]);
    out.latency_ms.push_back(
        static_cast<double>(sink_state.complete_ns[i] - last) / 1e6);
  }
  for (SymmetricHashJoin* shard : pj.value().shards) {
    out.shard_tuples_in.push_back(shard->stats().tuples_in);
    out.state_purged += shard->stats().tuples_in - shard->table_size(0) -
                        shard->table_size(1);
  }
  return out;
}

// ---- Isolated stage replays: Exchange → join shards → ShardMerge, each
// stage fed the recorded output of the one before.

struct StageCosts {
  double exchange_ns = 0;
  double join_ns = 0;
  double merge_ns = 0;
};

constexpr int64_t kReplayWindows = 8;
constexpr int64_t kPageTuples = 128;  // the pool's default page size

std::vector<Page> SidePages(uint64_t seed, int side) {
  std::vector<Page> pages;
  for (int64_t w = 0; w < kReplayWindows; ++w) {
    for (int64_t i = 0; i < kTuplesPerWindow; ++i) {
      if (i % kPageTuples == 0) pages.emplace_back();
      pages.back().AddTuple(MakeTuple(seed, -1, w, side, i));
    }
    pages.back().Add(StreamElement::OfPunct(CloseWindow(w)));
  }
  return pages;
}

StageCosts ReplayStages(uint64_t seed, double seconds) {
  StageCosts out;
  double ex_ns = 0, join_ns = 0, merge_ns = 0;
  double ex_in = 0, join_in = 0, merge_tuples = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    // Exchange: both sides, recorded per shard.
    std::vector<Page> shard_in[kShards][2];
    for (int side = 0; side < 2; ++side) {
      std::vector<Page> pages = SidePages(seed, side);
      Exchange ex("replay.xchg", kShards,
                  ExchangeOptions{.partition_keys = {0}});
      RecordingContext ctx(kShards);
      NSTREAM_CHECK(ex.SetInputSchema(0, SideSchema(side)).ok());
      NSTREAM_CHECK(ex.InferSchemas().ok());
      NSTREAM_CHECK(ex.Open(&ctx).ok());
      for (Page& p : pages) ex_in += static_cast<double>(p.size());
      {
        trace::Span span("replay.exchange", trace::Layer::kOps);
        const int64_t t0 = NowNs();
        for (Page& p : pages) {
          NSTREAM_CHECK(ex.ProcessPage(0, std::move(p), nullptr).ok());
        }
        ex_ns += static_cast<double>(NowNs() - t0);
      }
      for (int s = 0; s < kShards; ++s) shard_in[s][side] = ctx.Take(s);
    }
    // Join shards, sides interleaved page by page.
    std::vector<std::unique_ptr<SymmetricHashJoin>> shards;
    std::vector<std::unique_ptr<RecordingContext>> shard_ctx;
    for (int s = 0; s < kShards; ++s) {
      JoinOptions jo;
      jo.left_keys = {0};
      jo.right_keys = {0};
      jo.left_ts = 1;
      jo.right_ts = 1;
      jo.window_join = true;
      jo.window = WindowSpec{kWindowMs, kWindowMs};
      jo.shard_index = s;
      jo.shard_count = kShards;
      auto j = std::make_unique<SymmetricHashJoin>("replay.join", jo);
      shard_ctx.push_back(std::make_unique<RecordingContext>(1));
      NSTREAM_CHECK(j->SetInputSchema(0, SideSchema(0)).ok());
      NSTREAM_CHECK(j->SetInputSchema(1, SideSchema(1)).ok());
      NSTREAM_CHECK(j->InferSchemas().ok());
      NSTREAM_CHECK(j->Open(shard_ctx.back().get()).ok());
      shards.push_back(std::move(j));
    }
    {
      trace::Span span("replay.join", trace::Layer::kOps);
      for (int s = 0; s < kShards; ++s) {
        for (int side = 0; side < 2; ++side) {
          for (Page& p : shard_in[s][side]) {
            join_in += static_cast<double>(TupleCount(p));
          }
        }
        const size_t n = std::max(shard_in[s][0].size(), shard_in[s][1].size());
        const int64_t t0 = NowNs();
        for (size_t i = 0; i < n; ++i) {
          for (int side = 0; side < 2; ++side) {
            if (i < shard_in[s][side].size()) {
              NSTREAM_CHECK(shards[static_cast<size_t>(s)]
                                ->ProcessPage(side,
                                              std::move(shard_in[s][side][i]),
                                              nullptr)
                                .ok());
            }
          }
        }
        join_ns += static_cast<double>(NowNs() - t0);
      }
    }
    // ShardMerge over the recorded shard outputs.
    ShardMerge merge("replay.merge", kShards,
                     ShardMergeOptions{.union_options = {}, .partition_keys = {0}});
    RecordingContext merge_ctx(1);
    for (int s = 0; s < kShards; ++s) {
      NSTREAM_CHECK(
          merge.SetInputSchema(s, shards[static_cast<size_t>(s)]->output_schema(0))
              .ok());
    }
    NSTREAM_CHECK(merge.InferSchemas().ok());
    NSTREAM_CHECK(merge.Open(&merge_ctx).ok());
    std::vector<Page> merge_in[kShards];
    for (int s = 0; s < kShards; ++s) {
      merge_in[s] = shard_ctx[static_cast<size_t>(s)]->Take(0);
      for (Page& p : merge_in[s]) {
        merge_tuples += static_cast<double>(TupleCount(p));
      }
    }
    {
      trace::Span span("replay.merge", trace::Layer::kOps);
      const int64_t t0 = NowNs();
      for (int s = 0; s < kShards; ++s) {
        for (Page& p : merge_in[s]) {
          NSTREAM_CHECK(merge.ProcessPage(s, std::move(p), nullptr).ok());
        }
      }
      merge_ns += static_cast<double>(NowNs() - t0);
    }
  } while (NowNs() < deadline);
  out.exchange_ns = ex_ns / ex_in;
  out.join_ns = join_ns / join_in;
  out.merge_ns = merge_ns / merge_tuples;
  return out;
}

}  // namespace

Report RunJoinShards(const Options& opts) {
  Report report;
  auto run = [&opts](int workers, bool sample_queues) {
    return [&opts, workers, sample_queues](int pass, Report* r) {
      return RunPass(opts, pass, kWindowsPerPass, workers, sample_queues, r);
    };
  };
  int pass_index = 0;
  {
    Report warmup;  // first-touch page faults and lazy init, not scored
    run(kWorkers, false)(pass_index++, &warmup);
  }
  if (!opts.trace) {
    AddEndToEnd(MeasureClosedLoop("join_shards", opts.seconds, &pass_index,
                                  run(kWorkers, false), &report),
                &report);
    return report;
  }

  LayerValues v;
  // The long pass runs first, so the process's peak RSS after it is
  // what the unbounded queues held during it.
  PassResult long_pass =
      RunPass(opts, pass_index++, kWindowsPerPass * kLongPassFactor, kWorkers,
              false, &report);
  v["stream.backlog_peak_tuples"] = long_pass.backlog_peak;
  v["stream.long_pass_rss_mb"] = PeakRssMb();
  const auto plain = RunPhase(opts.seconds * 0.3, 3, &pass_index,
                              run(kWorkers, false), &report);
  const auto pool1 =
      RunPhase(opts.seconds * 0.2, 3, &pass_index, run(1, false), &report);
  trace::ResetTotals();
  trace::SetEnabled(true);
  const auto traced = RunPhase(opts.seconds * 0.3, 3, &pass_index,
                               run(kWorkers, true), &report);
  StageCosts stages = ReplayStages(opts.seed, opts.seconds * 0.1);
  trace::SetEnabled(false);
  AddSelfTimes(trace::Collect(), &v);
  v["trace.overhead_frac"] =
      MedianCpuNsPerTuple(traced) / MedianCpuNsPerTuple(plain) - 1;
  v["stream.queue_depth_peak_pages"] = QueuePagesPeak(traced);
  v["ops.exchange_ns_per_tuple"] = stages.exchange_ns;
  v["ops.join_ns_per_tuple"] = stages.join_ns;
  v["ops.merge_ns_per_tuple"] = stages.merge_ns;

  // Counters come from the untraced passes.
  AddExecCounters(plain, kWorkers, &v);
  const double pool2_rate = Median(PassRates(plain));
  const double pool1_rate = Median(PassRates(pool1));
  v["exec.pool1_tuples_per_sec"] = pool1_rate;
  v["exec.pool_speedup"] = pool1_rate > 0 ? pool2_rate / pool1_rate : 0;
  v["exec.pass_spread"] = IqrOverMedian(PassRates(plain));
  double purged = 0;
  std::vector<double> shard_in(kShards, 0);
  for (const PassResult& p : plain) {
    if (!p.ok) continue;
    purged += static_cast<double>(p.state_purged);
    for (size_t s = 0; s < p.shard_tuples_in.size(); ++s) {
      shard_in[s] += static_cast<double>(p.shard_tuples_in[s]);
    }
  }
  double mean_in = 0;
  for (double x : shard_in) mean_in += x / kShards;
  if (mean_in > 0) {
    v["ops.join_shard_skew"] =
        *std::max_element(shard_in.begin(), shard_in.end()) / mean_in;
  }
  v["ops.join_state_purged"] = purged;
  AddLayerMetrics(v, &report);
  return report;
}

}  // namespace servebench
