// Feedback translation through window operators, checked two-sided:
// a relayed input pattern must be SOUND (it suppresses a tuple only if
// every window the tuple feeds is covered, Definition 1) and TIGHT (it
// suppresses every such tuple, so the producer skips all the work the
// feedback makes useless, not all but the first window of it).

#include <gtest/gtest.h>

#include <string>

#include "exec/sync_executor.h"
#include "ops/window.h"
#include "ops/window_aggregate.h"
#include "testing/test_util.h"
#include "workload/pipelines.h"
#include "workload/traffic.h"
#include "workload/viewer.h"

namespace nstream {
namespace {

using testing_util::FB;
using testing_util::P;

// ------------------------------------------- MapWindowEndToTimestamp

// Outcome of comparing one mapped pattern with the truth over a span
// of timestamps. Tuples that feed no window (the gaps of hopping
// windows) are skipped: suppressing them or not changes no result.
struct MapCheck {
  int unsound = 0;  // suppressed, but some window of t is not covered
  int loose = 0;    // every window of t covered, yet not suppressed
  std::string first;
};

void Check(const WindowSpec& spec, const AttrPattern& window_end,
           MapCheck* out) {
  Result<AttrPattern> mapped = MapWindowEndToTimestamp(window_end, spec);
  for (TimeMs t = -30; t <= 30; ++t) {
    std::vector<int64_t> wins = spec.WindowsOf(t);
    if (wins.empty()) continue;
    bool covered = true;
    for (int64_t w : wins) {
      covered = covered &&
                window_end.Matches(Value::Timestamp(spec.WindowEnd(w)));
    }
    bool suppressed =
        mapped.ok() && mapped.value().Matches(Value::Timestamp(t));
    if (suppressed == covered) continue;
    (suppressed ? out->unsound : out->loose) += 1;
    if (out->first.empty()) {
      out->first = "range " + std::to_string(spec.range_ms) + " slide " +
                   std::to_string(spec.slide_ms) + ", window end " +
                   window_end.ToString() + " -> " +
                   (mapped.ok() ? mapped.value().ToString()
                                : mapped.status().ToString()) +
                   ", t " + std::to_string(t) +
                   (suppressed ? " suppressed" : " kept");
    }
  }
}

const WindowSpec kSpecs[] = {
    // tumbling
    {1, 1}, {2, 2}, {3, 3}, {5, 5},
    // sliding, range a multiple of slide and not
    {2, 1}, {3, 1}, {4, 2}, {3, 2}, {5, 2}, {7, 3}, {6, 4},
    // hopping: range < slide leaves tuples in no window
    {1, 2}, {2, 5},
};

TEST(WindowEndMapTest, BruteForceExactForEveryOrderOpAndRange) {
  MapCheck check;
  for (const WindowSpec& spec : kSpecs) {
    for (TimeMs w = -15; w <= 15; ++w) {
      Value v = Value::Timestamp(w);
      for (const AttrPattern& p :
           {AttrPattern::Le(v), AttrPattern::Lt(v), AttrPattern::Ge(v),
            AttrPattern::Gt(v), AttrPattern::Eq(v)}) {
        Check(spec, p, &check);
      }
      for (TimeMs hi = -15; hi <= 15; ++hi) {
        Check(spec, AttrPattern::Range(v, Value::Timestamp(hi)), &check);
      }
    }
  }
  EXPECT_EQ(check.unsound, 0) << check.first;
  EXPECT_EQ(check.loose, 0) << check.first;
}

TEST(WindowEndMapTest, NotEqualIsSoundButLoose) {
  // "every window of t ends ≠ W" holds outside one window's span — a
  // two-sided set no single timestamp pattern expresses. The mapping
  // declines it, which suppresses nothing: sound, and the only op
  // whose covered tuples are not all suppressed.
  MapCheck check;
  for (const WindowSpec& spec : kSpecs) {
    for (TimeMs w = -15; w <= 15; ++w) {
      AttrPattern ne = AttrPattern::Ne(Value::Timestamp(w));
      EXPECT_TRUE(MapWindowEndToTimestamp(ne, spec).status().IsUnsupported());
      Check(spec, ne, &check);
    }
  }
  EXPECT_EQ(check.unsound, 0) << check.first;
  EXPECT_GT(check.loose, 0);
}

TEST(WindowEndMapTest, ViewerIntervalMapsToTheWholeInterval) {
  // The viewer hides windows STARTING in [lo, lo+switch): window ends
  // [lo+range, lo+switch+range-1]. Every tuple in [lo, lo+switch) feeds
  // one of them, the first window's tuples included.
  const WindowSpec spec{60'000, 60'000};
  const TimeMs lo = 240'000;
  for (TimeMs sw : {60'000, 120'000, 240'000}) {
    Result<AttrPattern> r = MapWindowEndToTimestamp(
        AttrPattern::Range(Value::Timestamp(lo + 60'000),
                           Value::Timestamp(lo + sw + 60'000 - 1)),
        spec);
    ASSERT_TRUE(r.ok()) << "switch " << sw << ": " << r.status().ToString();
    EXPECT_EQ(r.value().ToString(),
              AttrPattern::Range(Value::Timestamp(lo),
                                 Value::Timestamp(lo + sw - 1))
                  .ToString());
  }
}

TEST(WindowEndMapTest, LowerBoundsReachBackOneWindow) {
  const WindowSpec tumbling{1'000, 1'000};
  Result<AttrPattern> ge =
      MapWindowEndToTimestamp(AttrPattern::Ge(Value::Timestamp(3'000)),
                              tumbling);
  ASSERT_TRUE(ge.ok());
  // Window [2000, 3000) ends at 3000: its tuples are covered.
  EXPECT_TRUE(ge.value().Matches(Value::Timestamp(2'000)));
  EXPECT_FALSE(ge.value().Matches(Value::Timestamp(1'999)));
  // > 3000 is ≥ 3001: the window ending at 3000 is no longer covered.
  Result<AttrPattern> gt =
      MapWindowEndToTimestamp(AttrPattern::Gt(Value::Int64(3'000)),
                              tumbling);
  ASSERT_TRUE(gt.ok());
  EXPECT_FALSE(gt.value().Matches(Value::Timestamp(2'999)));
  EXPECT_TRUE(gt.value().Matches(Value::Timestamp(3'000)));
  // Sliding (range 3 s, slide 1 s): t = 2000 feeds windows ending at
  // 3000, 4000 and 5000; t = 1999 also feeds the one ending at 2000.
  Result<AttrPattern> sliding =
      MapWindowEndToTimestamp(AttrPattern::Ge(Value::Timestamp(3'000)),
                              WindowSpec{3'000, 1'000});
  ASSERT_TRUE(sliding.ok());
  EXPECT_TRUE(sliding.value().Matches(Value::Timestamp(2'000)));
  EXPECT_FALSE(sliding.value().Matches(Value::Timestamp(1'999)));
}

TEST(WindowEndMapTest, EqualityIsExactAndEmptyOffTheWindowGrid) {
  // Tumbling: 3500 is no window's end, so no tuple is covered. The
  // span [2500, 3499] would drop tuples of windows ending 3000 and
  // 4000.
  EXPECT_TRUE(MapWindowEndToTimestamp(
                  AttrPattern::Eq(Value::Timestamp(3'500)),
                  WindowSpec{1'000, 1'000})
                  .status()
                  .IsUnsupported());
  // Sliding, range 15 s, slide 10 s: tuples in [10w+5s, 10w+10s) feed
  // window w alone, so "ends at 35 s" (window 2) covers [25 s, 30 s).
  Result<AttrPattern> r = MapWindowEndToTimestamp(
      AttrPattern::Eq(Value::Timestamp(35'000)), WindowSpec{15'000, 10'000});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ToString(),
            AttrPattern::Range(Value::Timestamp(25'000),
                               Value::Timestamp(29'999))
                .ToString());
}

TEST(WindowEndMapTest, TumblingTimestampsAreExactlyTheWindowsTuples) {
  // The join's and the aggregate's per-window relays: the pattern
  // matches t iff t's one window lies in [from, to], and equals the
  // exact mapping of the window-end range of those windows.
  for (TimeMs range : {1, 3, 5}) {
    const WindowSpec spec{range, range};
    for (int64_t from = -4; from <= 4; ++from) {
      for (int64_t to = from; to <= from + 2; ++to) {
        AttrPattern p = spec.TumblingTimestamps(from, to);
        Result<AttrPattern> mapped = MapWindowEndToTimestamp(
            AttrPattern::Range(Value::Timestamp(spec.WindowEnd(from)),
                               Value::Timestamp(spec.WindowEnd(to))),
            spec);
        ASSERT_TRUE(mapped.ok());
        EXPECT_EQ(p.ToString(), mapped.value().ToString());
        for (TimeMs t = -30; t <= 30; ++t) {
          int64_t w = spec.WindowsOf(t).front();
          EXPECT_EQ(p.Matches(Value::Timestamp(t)), from <= w && w <= to)
              << "range " << range << " [" << from << ", " << to
              << "] t " << t;
        }
      }
    }
  }
}

// ------------------------------------------- WindowAggregate relay sites

SchemaPtr GVSchema() {
  return Schema::Make({{"g", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kDouble}});
}

WindowAggregateOptions AggOpt(AggKind kind, WindowSpec window) {
  WindowAggregateOptions opt;
  opt.ts_attr = 1;
  opt.group_attrs = {0};
  opt.agg_attr = 2;
  opt.kind = kind;
  opt.window = window;
  return opt;
}

// Records what an operator asks of its input: prioritisations and
// relayed feedback.
class RecordingCtx : public ExecContext {
 public:
  void EmitTuple(int, Tuple) override {}
  void EmitPunct(int, Punctuation) override {}
  void EmitEos(int) override {}
  void EmitFeedback(int, FeedbackPunctuation fb) override {
    relayed.push_back(std::move(fb));
  }
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}
  int PrioritizeInput(int, const PunctPattern& p) override {
    prioritized.push_back(p);
    return 0;
  }
  std::vector<FeedbackPunctuation> relayed;
  std::vector<PunctPattern> prioritized;
};

void OpenAgg(WindowAggregate* agg, RecordingCtx* ctx) {
  ASSERT_TRUE(agg->SetInputSchema(0, GVSchema()).ok());
  ASSERT_TRUE(agg->InferSchemas().ok());
  ASSERT_TRUE(agg->Open(ctx).ok());
}

TEST(WindowRelayTest, DesiredRangePrioritisesItsFirstWindow) {
  // Desired results for the one window ending at 2000, i.e. the tuples
  // in [1000, 2000). HandleDesired shares MapToInput with the assumed
  // path, so the exact mapping reaches the first (here only) window of
  // the range instead of declining it.
  WindowAggregate avg("avg",
                      AggOpt(AggKind::kAvg, WindowSpec{1'000, 1'000}));
  RecordingCtx ctx;
  OpenAgg(&avg, &ctx);
  ASSERT_TRUE(avg.ProcessControl(
                     0, ControlMessage::Feedback(FeedbackPunctuation::Desired(
                            P("[[t:2000..t:2999],*,*]"))))
                  .ok());
  EXPECT_EQ(avg.stats().feedback_ignored, 0u);
  ASSERT_EQ(ctx.prioritized.size(), 1u);
  const PunctPattern& p = ctx.prioritized[0];
  auto at = [](TimeMs ts) {
    return TupleBuilder().I64(7).Ts(ts).D(1).Build();
  };
  EXPECT_TRUE(p.Matches(at(1'000)));
  EXPECT_TRUE(p.Matches(at(1'999)));
  EXPECT_FALSE(p.Matches(at(999)));
  EXPECT_FALSE(p.Matches(at(2'000)));
  ASSERT_EQ(ctx.relayed.size(), 1u);
  EXPECT_EQ(ctx.relayed[0].intent(), FeedbackIntent::kDesired);
  EXPECT_EQ(ctx.relayed[0].pattern().ToString(), p.ToString());
}

TEST(WindowRelayTest, PurgeByPartialRelaysExactlyThePurgedWindow) {
  // MAX at partial 51 under ¬[*,*,≥50]: (window 1, group 0) is purged
  // and relayed as its own tuples — window 1's timestamps, group 0.
  WindowAggregate maxop("max",
                        AggOpt(AggKind::kMax, WindowSpec{1'000, 1'000}));
  RecordingCtx ctx;
  OpenAgg(&maxop, &ctx);
  ASSERT_TRUE(
      maxop.ProcessTuple(0, TupleBuilder().I64(0).Ts(1'100).D(51).Build())
          .ok());
  ASSERT_TRUE(
      maxop.ProcessControl(0, ControlMessage::Feedback(FB("~[*,*,>=50]")))
          .ok());
  ASSERT_EQ(maxop.stats().state_purged, 1u);
  ASSERT_EQ(ctx.relayed.size(), 1u);
  const PunctPattern& up = ctx.relayed[0].pattern();
  for (TimeMs ts = 0; ts < 3'000; ts += 50) {
    for (int64_t g : {0, 1}) {
      bool purged_key = g == 0 && ts >= 1'000 && ts < 2'000;
      EXPECT_EQ(up.Matches(TupleBuilder().I64(g).Ts(ts).D(0).Build()),
                purged_key)
          << "g " << g << " ts " << ts;
    }
  }

  // Sliding: the tuples of a purged window also feed its neighbours,
  // which were not purged — the site relays nothing (sound, not tight).
  WindowAggregate sliding(
      "max", AggOpt(AggKind::kMax, WindowSpec{2'000, 1'000}));
  RecordingCtx sliding_ctx;
  OpenAgg(&sliding, &sliding_ctx);
  ASSERT_TRUE(
      sliding.ProcessTuple(0, TupleBuilder().I64(0).Ts(1'100).D(51).Build())
          .ok());
  ASSERT_TRUE(sliding
                  .ProcessControl(0, ControlMessage::Feedback(
                                         FB("~[*,*,>=50]")))
                  .ok());
  EXPECT_EQ(sliding.stats().state_purged, 2u);
  EXPECT_TRUE(sliding_ctx.relayed.empty());
}

// ------------------------- Experiment 2 plan: exploitation moves upstream

TEST(WindowRelayTest, SpeedmapF3HiddenWindowsNeverReachAverage) {
  // The Experiment 2 plan (σQ → AVERAGE → viewer) under F3. The viewer
  // hides each upcoming interval's other segments one interval ahead,
  // so from interval 1 on every hidden tuple is covered before it
  // arrives. The relayed pattern must cover the interval's FIRST window
  // too: σQ's guard drops all of them, and AVERAGE's guard, which used
  // to catch the first window of each interval, drops none.
  SpeedmapPlanConfig config;
  config.traffic.num_segments = 4;
  config.traffic.detectors_per_segment = 6;
  config.traffic.tick_ms = 20'000;
  config.traffic.duration_ms = 40 * 60'000;
  config.traffic.punct_every_ms = 60'000;
  config.scheme = FeedbackPolicy::kExploitAndPropagate;
  config.switch_every_ms = 240'000;
  ViewerConfig viewer;
  viewer.num_segments = config.traffic.num_segments;
  viewer.switch_every_ms = config.switch_every_ms;

  uint64_t hidden = 0;  // hidden tuples of intervals >= 1
  uint64_t total = 0;
  for (const TimedElement& te : GenerateTraffic(config.traffic)) {
    if (!te.element.is_tuple()) continue;
    ++total;
    const Tuple& t = te.element.tuple();
    TimeMs ts = t.value(kDetTimestamp).timestamp_value();
    if (ts < config.switch_every_ms) continue;
    if (t.value(kDetSegment).int64_value() == VisibleSegmentAt(viewer, ts)) {
      continue;
    }
    ++hidden;
  }

  SpeedmapPlan built = BuildSpeedmapPlan(config);
  SyncExecutor exec;
  ASSERT_TRUE(exec.Run(built.plan.get()).ok());
  // Removed upstream: by σQ's guard, or purged from the queue into
  // AVERAGE when the relay lands.
  EXPECT_GT(built.quality_filter->stats().input_guard_drops, 0u);
  EXPECT_LE(built.average->stats().tuples_in, total - hidden);
  EXPECT_EQ(built.average->stats().input_guard_drops, 0u);
}

}  // namespace
}  // namespace nstream
