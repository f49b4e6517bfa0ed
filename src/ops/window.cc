#include "ops/window.h"

namespace nstream {

namespace {

// A tuple at application time t belongs to windows
//   FloorDiv(t - range, slide) + 1  ..  FloorDiv(t, slide),
// so its earliest window end is (FloorDiv(t - range, slide) + 1)·slide
// + range and its latest is FloorDiv(t, slide)·slide + range. Both are
// nondecreasing in t, so "every window of t ends ≥ W" holds on a
// timestamp half-line [a, ∞) and "every window of t ends ≤ W" on a
// half-line (-∞, b). The two helpers below compute a and b exactly.

int64_t CeilDiv(int64_t a, int64_t b) {
  return -WindowSpec::FloorDiv(-a, b);
}

// Smallest t whose earliest window end is ≥ w:
//   FloorDiv(t - range, slide) + 1 ≥ CeilDiv(w - range, slide)
//   ⇔ t ≥ (CeilDiv(w - range, slide) - 1)·slide + range.
// For tumbling windows this is the start of the first window ending
// at or after w (w - range when w is a window end).
int64_t FirstTsWithAllEndsAtLeast(int64_t w, const WindowSpec& spec) {
  return (CeilDiv(w - spec.range_ms, spec.slide_ms) - 1) * spec.slide_ms +
         spec.range_ms;
}

// Smallest t whose latest window end is > w; every earlier tuple has
// all its window ends ≤ w:
//   FloorDiv(t, slide) ≤ FloorDiv(w - range, slide)
//   ⇔ t < (FloorDiv(w - range, slide) + 1)·slide.
int64_t FirstTsWithSomeEndAbove(int64_t w, const WindowSpec& spec) {
  return (WindowSpec::FloorDiv(w - spec.range_ms, spec.slide_ms) + 1) *
         spec.slide_ms;
}

// Timestamps whose every window end lies in [lo, hi]: the intersection
// of the two half-lines, or Unsupported when it holds no timestamp
// (nothing to suppress, so nothing to relay).
Result<AttrPattern> MapEndRange(int64_t lo, int64_t hi,
                                const WindowSpec& spec) {
  int64_t first = FirstTsWithAllEndsAtLeast(lo, spec);
  int64_t last = FirstTsWithSomeEndAbove(hi, spec) - 1;
  if (last < first) {
    return Status::Unsupported(
        "window-end range maps to an empty timestamp range");
  }
  return AttrPattern::Range(Value::Timestamp(first), Value::Timestamp(last));
}

}  // namespace

Result<AttrPattern> MapWindowEndToTimestamp(const AttrPattern& window_end,
                                            const WindowSpec& spec) {
  switch (window_end.op()) {
    case PatternOp::kLe:
    case PatternOp::kLt:
    case PatternOp::kGe:
    case PatternOp::kGt:
    case PatternOp::kEq:
    case PatternOp::kRange:
      break;
    default:
      // ≠ would need "ts outside one window", which no single
      // AttrPattern expresses; a window end is never NULL, so the NULL
      // tests do not arise.
      return Status::Unsupported(
          "window-end constraint shape cannot be soundly mapped to the "
          "input timestamp");
  }
  Result<int64_t> bound = window_end.operand().AsInt64();
  if (!bound.ok()) return bound.status();
  const int64_t w = bound.value();
  switch (window_end.op()) {
    case PatternOp::kLt:
      return AttrPattern::Lt(
          Value::Timestamp(FirstTsWithSomeEndAbove(w - 1, spec)));
    case PatternOp::kLe:
      return AttrPattern::Lt(
          Value::Timestamp(FirstTsWithSomeEndAbove(w, spec)));
    case PatternOp::kGt:
      return AttrPattern::Ge(
          Value::Timestamp(FirstTsWithAllEndsAtLeast(w + 1, spec)));
    case PatternOp::kGe:
      return AttrPattern::Ge(
          Value::Timestamp(FirstTsWithAllEndsAtLeast(w, spec)));
    case PatternOp::kEq:
      // end == W is the one-point range [W, W]: exact under sliding
      // windows too, and empty (Unsupported) when W is not a window
      // end or every tuple near it spans several windows.
      return MapEndRange(w, w, spec);
    default: {
      Result<int64_t> hi = window_end.hi().AsInt64();
      if (!hi.ok()) return hi.status();
      return MapEndRange(w, hi.value(), spec);
    }
  }
}

}  // namespace nstream
