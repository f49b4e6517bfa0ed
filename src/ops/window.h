// WID-style windowing (Li et al. [8], the foundation of NiagaraST's
// OOP architecture [9]): a tuple's window memberships are computed
// from its timestamp alone, so processing is order-agnostic and
// windows are *closed by punctuation*, not by arrival order.
//
// Window w covers application time [w*slide, w*slide + range); its
// window-id is w and its "window end" (the output timestamp) is
// w*slide + range. Tumbling windows are slide == range.

#ifndef NSTREAM_OPS_WINDOW_H_
#define NSTREAM_OPS_WINDOW_H_

#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "punct/attr_pattern.h"

namespace nstream {

struct WindowSpec {
  TimeMs range_ms = 60'000;
  TimeMs slide_ms = 60'000;

  bool tumbling() const { return range_ms == slide_ms; }

  /// Ids of all windows containing application time `ts`.
  std::vector<int64_t> WindowsOf(TimeMs ts) const {
    std::vector<int64_t> out;
    // w*slide <= ts < w*slide + range  ⇔  (ts-range)/slide < w <= ts/slide
    int64_t hi = FloorDiv(ts, slide_ms);
    int64_t lo = FloorDiv(ts - range_ms, slide_ms) + 1;
    out.reserve(static_cast<size_t>(hi - lo + 1));
    for (int64_t w = lo; w <= hi; ++w) out.push_back(w);
    return out;
  }

  TimeMs WindowStart(int64_t w) const { return w * slide_ms; }
  TimeMs WindowEnd(int64_t w) const { return w * slide_ms + range_ms; }

  /// Timestamp pattern of exactly the tuples in tumbling windows
  /// `from`..`to`: [WindowStart(from), WindowEnd(to) − 1]. Under
  /// sliding windows such a tuple may also feed windows outside the
  /// span, so the pattern would not be sound for feedback there.
  AttrPattern TumblingTimestamps(int64_t from, int64_t to) const {
    return AttrPattern::Range(Value::Timestamp(WindowStart(from)),
                              Value::Timestamp(WindowEnd(to) - 1));
  }

  /// Largest window id fully covered by "all tuples with ts <= bound
  /// have been seen": window w is closable iff WindowEnd(w) <= bound+1,
  /// i.e. every tuple it could contain has timestamp <= bound.
  int64_t LastClosableWindow(TimeMs ts_bound_inclusive) const {
    // WindowEnd(w) <= bound+1  ⇔  w <= (bound+1-range)/slide
    return FloorDiv(ts_bound_inclusive + 1 - range_ms, slide_ms);
  }

  static int64_t FloorDiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }
};

/// Map a constraint on the *window end* output attribute into an exact
/// constraint on the input *timestamp* attribute, for upstream
/// propagation. Sound: the returned pattern matches a tuple only if
/// EVERY window that tuple contributes to is covered by the window-end
/// constraint (Example 2's pitfall: with sliding windows a tuple
/// belongs to several windows, so filtering at the bottom of the plan
/// on a per-window basis is incorrect). Tight: it matches every such
/// tuple, for ≤, <, ≥, >, = and ranges, tumbling or sliding. (With
/// hopping windows, range < slide, tuples between windows feed none;
/// the pattern may or may not match them.)
///
/// Returns Unsupported for ≠ (no single timestamp pattern expresses
/// it), for the NULL tests, and for constraints that no tuple
/// satisfies (e.g. = W where W is not a window end).
Result<AttrPattern> MapWindowEndToTimestamp(const AttrPattern& window_end,
                                            const WindowSpec& spec);

}  // namespace nstream

#endif  // NSTREAM_OPS_WINDOW_H_
