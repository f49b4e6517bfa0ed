// Cross-executor consistency: the same plan over the same workload
// must produce the same result multiset under the synchronous and
// discrete-event executors, the pooled scheduler at several pool
// sizes, and the seeded scheduling harness (order may vary).

#include <gtest/gtest.h>

#include <algorithm>

#include "ops/select.h"
#include "ops/window_aggregate.h"
#include "testing/sched_harness.h"
#include "testing/test_util.h"
#include "workload/pipelines.h"

namespace nstream {
namespace {

using testing_util::LinearPlan;
using testing_util::P;
using testing_util::SchedHarness;
using testing_util::SchedHarnessOptions;

SchemaPtr GVSchema() {
  return Schema::Make({{"g", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kDouble}});
}

std::vector<TimedElement> Workload() {
  std::vector<TimedElement> out;
  Rng rng(77);
  TimeMs last_punct = 0;
  for (int i = 0; i < 400; ++i) {
    TimeMs ts = i * 25;
    out.push_back(TimedElement::OfTuple(
        ts, TupleBuilder()
                .I64(rng.NextInt(0, 4))
                .Ts(ts)
                .D(rng.NextDouble(0, 80))
                .Build()));
    if (ts - last_punct >= 1'000) {
      out.push_back(TimedElement::OfPunct(
          ts, Punctuation(PunctPattern::AllWildcard(3).With(
                  1, AttrPattern::Le(Value::Timestamp(ts))))));
      last_punct = ts;
    }
  }
  return out;
}

std::multiset<std::string> RunUnder(int executor) {
  LinearPlan lp(GVSchema(), Workload());
  lp.Add(Select::FromPattern("sel", P("[*,*,>=10.0]")));
  WindowAggregateOptions opt;
  opt.ts_attr = 1;
  opt.group_attrs = {0};
  opt.agg_attr = 2;
  opt.kind = AggKind::kAvg;
  opt.window = {1'000, 1'000};
  lp.Add(std::make_unique<WindowAggregate>("avg", opt));
  CollectorSink* sink = lp.Finish();
  Status st;
  switch (executor) {
    case 0:
      st = lp.RunSync();
      break;
    case 1:
      st = lp.RunSim();
      break;
    case 2: {
      // One worker per operator: every queue hop can cross threads.
      PooledExecutorOptions opts;
      opts.pool_size = 4;
      st = lp.RunPooled(opts);
      break;
    }
    case 3: {
      PooledExecutorOptions opts;
      opts.pool_size = 2;
      st = lp.RunPooled(opts);
      break;
    }
    default: {
      // Seeded manual-mode harness with wake deferral: the adversarial
      // scheduling variant of the same consistency claim.
      SchedHarnessOptions hopts;
      hopts.seed = 97;
      hopts.wake_defer_prob = 0.25;
      SchedHarness harness(hopts);
      st = harness.Run(lp.plan());
      break;
    }
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::multiset<std::string> out;
  for (const CollectedTuple& c : sink->collected()) {
    out.insert(c.tuple.ToString());
  }
  return out;
}

TEST(ExecutorConsistency, SyncVsSim) {
  EXPECT_EQ(RunUnder(0), RunUnder(1));
}

TEST(ExecutorConsistency, SyncVsPooledWorkerPerOperator) {
  EXPECT_EQ(RunUnder(0), RunUnder(2));
}

TEST(ExecutorConsistency, PooledIsStableAcrossRuns) {
  EXPECT_EQ(RunUnder(2), RunUnder(2));
}

TEST(ExecutorConsistency, SyncVsPooled) {
  EXPECT_EQ(RunUnder(0), RunUnder(3));
}

TEST(ExecutorConsistency, SyncVsSchedHarness) {
  EXPECT_EQ(RunUnder(0), RunUnder(4));
}

// The Experiment 1 plan with live PACE feedback — the architecture
// demo. Real sleeps (ChargePolicy::kSleep + wall-clock pacing) would
// make the timing dynamics hostage to box speed and sleep jitter, so
// it runs on the scheduling harness in VIRTUAL time: arrivals release
// on a VirtualClock and each ChargeMs busy-parks the charged operator
// for that long, so IMPUTE genuinely falls behind its free neighbors
// and the divergence dynamics are exact arithmetic — reproducible
// from the harness seed.
TEST(HarnessFeedback, ImputationPlanExerciseControlChannel) {
  ImputationPlanConfig config;
  config.stream.num_tuples = 300;
  config.stream.inter_arrival_ms = 1;  // dense stream
  // Dirty tuples arrive every ~2ms (virtual); a 4ms lookup makes the
  // impute branch fall behind by ~2ms per dirty tuple, so divergence
  // crosses the 50ms tolerance after ~26 dirty tuples — deterministic
  // arithmetic on the virtual clock, not a race against wall time.
  config.impute_cost_ms = 4.0;
  config.tolerance_ms = 50;
  config.feedback_enabled = true;

  ImputationPlan built = BuildImputationPlan(config);
  SchedHarnessOptions hopts;
  hopts.seed = 9;
  hopts.sched.pace_sources = true;  // virtual-time arrival pacing
  hopts.sched.queue.page_size = 8;
  SchedHarness harness(hopts);
  Status st = harness.Run(built.plan.get());
  ASSERT_TRUE(st.ok()) << st.ToString();

  // All clean tuples arrive; feedback was produced and exploited.
  EXPECT_EQ(built.clean_filter->stats().tuples_out, 150u);
  EXPECT_GT(built.pace->stats().feedback_sent, 0u);
  EXPECT_GT(built.impute->stats().feedback_received, 0u);
  // Work was genuinely avoided (purged backlog or guarded arrivals).
  EXPECT_LT(built.impute->imputations(), 150u);
  // The run consumed virtual, not wall, time: the last of 300 arrivals
  // at 1ms spacing lands at >= 299ms on the harness clock.
  EXPECT_GE(harness.clock()->NowMs(), 299);
}

}  // namespace
}  // namespace nstream
