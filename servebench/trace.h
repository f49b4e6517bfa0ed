// In-memory spans for the traced run. A span has a name, a layer, a
// start, an end and a parent (the enclosing span on the same thread,
// or the current pass's root span for the first span a worker opens).
// Every thread keeps its own open-span stack and per-layer self-time
// totals, so recording takes no lock; raw spans are kept up to a fixed
// cap and written out once, at exit.
//
// Spans are recorded only from the benchmark's own files, around the
// calls it makes into each engine layer. With tracing off a Span costs
// one relaxed atomic load.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace servebench::trace {

/// Layers are named after the engine's modules (punct + core are
/// "feedback"), plus the benchmark's own load generator "gen".
enum class Layer : uint8_t { kGen, kIngest, kExec, kStream, kOps, kFeedback };
inline constexpr int kNumLayers = 6;
const char* LayerName(Layer layer);

/// Call first thing in main(): the main thread's spans are the causes
/// of root spans opened on other threads.
void RegisterMainThread();

extern std::atomic<bool> g_enabled;
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

void Begin(const char* name, Layer layer);
void End();

class Span {
 public:
  Span(const char* name, Layer layer) : active_(Enabled()) {
    if (active_) Begin(name, layer);
  }
  ~Span() {
    if (active_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct Totals {
  double self_ns[kNumLayers] = {};
  uint64_t spans = 0;
};

/// Sum of every thread's totals. Call only while no other thread is
/// recording (between passes).
Totals Collect();
/// Zero every thread's totals (raw spans are kept). Same caveat.
void ResetTotals();
/// Write the kept raw spans as JSON lines. False on I/O failure.
bool WriteRaw(const std::string& path);

}  // namespace servebench::trace

#endif  // SERVEBENCH_TRACE_H_
