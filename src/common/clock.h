// Clocks. The engine distinguishes three notions of time, following the
// out-of-order-processing literature the paper builds on:
//   * application time  — the timestamp attribute inside tuples;
//   * system time       — when an element moves through the engine. Under
//                         the discrete-event SimExecutor this is virtual
//                         (deterministic); under the pooled scheduler it
//                         is wall-clock (or a VirtualClock in manual mode);
//   * wall time         — host clock, used only by benchmarks.

#ifndef NSTREAM_COMMON_CLOCK_H_
#define NSTREAM_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace nstream {

/// Milliseconds since an arbitrary epoch. All engine time is int64 ms.
using TimeMs = int64_t;

/// Abstract system-time source handed to operators via ExecContext.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeMs NowMs() const = 0;
};

/// Deterministic clock owned and advanced by the SimExecutor.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(TimeMs start = 0) : now_(start) {}

  TimeMs NowMs() const override { return now_; }

  /// Advance to `t`; time never moves backwards.
  void AdvanceTo(TimeMs t) {
    if (t > now_) now_ = t;
  }

 private:
  TimeMs now_;
};

/// Wall-clock time (steady), used by the pooled scheduler.
class WallClock final : public Clock {
 public:
  WallClock()
      : start_(std::chrono::steady_clock::now()) {}

  TimeMs NowMs() const override {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nstream

#endif  // NSTREAM_COMMON_CLOCK_H_
