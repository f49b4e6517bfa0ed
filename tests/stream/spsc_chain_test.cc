// SpscChain (growable lock-free SPSC) and DataQueue over it:
// unbounded pushes across segment boundaries, FIFO order, flush
// semantics and stats, notifier-installed-after-first-push ordering,
// purge/promote surgery (including the single-thread open-page reach
// the SyncExecutor relies on), arena-backed pages surviving queue hops
// and surgery, and randomized producer/consumer stress. The queue-level
// cases run in both thread contracts (assume_single_thread on and
// off). The whole file runs under the TSan CI job, which is where the
// acquire/release choreography is actually proven.

#include "stream/spsc_chain.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "punct/compiled_pattern.h"
#include "punct/pattern_parser.h"
#include "stream/data_queue.h"

namespace nstream {
namespace {

PunctPattern P(const std::string& text) {
  Result<PunctPattern> r = ParsePattern(text);
  EXPECT_TRUE(r.ok()) << text;
  return r.MoveValue();
}

TEST(SpscChainTest, FifoAcrossManySegments) {
  SpscChain<int> chain(/*segment_capacity=*/4);
  for (int i = 0; i < 1000; ++i) chain.Push(int(i));
  EXPECT_EQ(chain.ApproxSize(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    std::optional<int> v = chain.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(chain.TryPop().has_value());
  EXPECT_TRUE(chain.ApproxEmpty());
}

TEST(SpscChainTest, InterleavedPushPopRetiresSegments) {
  SpscChain<int> chain(2);
  int next_pop = 0;
  for (int i = 0; i < 500; ++i) {
    chain.Push(int(i));
    if (i % 3 == 0) {
      std::optional<int> v = chain.TryPop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_pop++);
    }
  }
  while (std::optional<int> v = chain.TryPop()) {
    EXPECT_EQ(*v, next_pop++);
  }
  EXPECT_EQ(next_pop, 500);
}

TEST(SpscChainTest, DropsUnconsumedItemsOnDestruction) {
  // Destruction with items still queued (possibly spanning segments)
  // must release everything — LSan is the referee.
  SpscChain<std::string> chain(2);
  for (int i = 0; i < 100; ++i) {
    chain.Push("item-" + std::to_string(i) +
               "-with-a-heap-allocated-payload");
  }
  std::optional<std::string> v = chain.TryPop();
  ASSERT_TRUE(v.has_value());
}

TEST(SpscChainTest, TwoThreadStressPreservesOrder) {
  SpscChain<int> chain(8);
  constexpr int kN = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) chain.Push(int(i));
  });
  int expected = 0;
  while (expected < kN) {
    if (std::optional<int> v = chain.TryPop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(chain.ApproxEmpty());
}

DataQueueOptions ChainOptions(int page_size = 4,
                              bool single_thread = true) {
  return DataQueueOptions{
      .page_size = page_size,
      .chain_segment_pages = 2,  // force frequent segment turnover
      .assume_single_thread = single_thread};
}

Tuple T1(int64_t v) { return TupleBuilder().I64(v).Build(); }

// Poll-drain until the producer's EOS has been consumed — the pooled
// scheduler's consumer shape (TryPopPage on wake), minus the wake.
template <typename OnPage>
void DrainUntilEos(DataQueue* q, OnPage&& on_page) {
  while (true) {
    if (std::optional<Page> page = q->TryPopPage()) {
      on_page(*page);
    } else if (q->Drained()) {
      return;
    } else {
      std::this_thread::yield();
    }
  }
}

TEST(DataQueueChainTest, UnboundedPushAndOrderedDrain) {
  DataQueue q(ChainOptions());
  for (int i = 0; i < 1000; ++i) q.PushTuple(T1(i));
  q.PushEos();
  int64_t next = 0;
  size_t pages = 0;
  while (auto page = q.TryPopPage()) {
    ++pages;
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        EXPECT_EQ(e.tuple().value(0).int64_value(), next++);
      } else {
        EXPECT_TRUE(e.is_eos());
      }
    }
  }
  EXPECT_EQ(next, 1000);
  EXPECT_GT(pages, 100u);  // far beyond one segment's worth
  EXPECT_TRUE(q.Drained());
  DataQueueStats st = q.stats();
  EXPECT_EQ(st.tuples_pushed, 1000u);
  EXPECT_EQ(st.pages_popped, st.pages_flushed_total());
}

TEST(DataQueueChainTest, PunctuationStillFlushesImmediately) {
  DataQueue q(ChainOptions(/*page_size=*/64));
  q.PushTuple(T1(1));
  q.PushPunctuation(Punctuation(P("[<=5]")));
  auto page = q.TryPopPage();
  ASSERT_TRUE(page.has_value());
  ASSERT_EQ(page->size(), 2u);
  EXPECT_TRUE(page->elements()[1].is_punct());
  EXPECT_EQ(page->flush_reason(), FlushReason::kPunctuation);
}

TEST(DataQueueChainTest, SingleThreadPurgeReachesOpenPage) {
  // SyncExecutor semantics: with assume_single_thread the purge must
  // cover published pages AND the producer-side open page, exactly
  // like the mutex deque.
  DataQueue q(ChainOptions(/*page_size=*/4));
  for (int i = 0; i < 10; ++i) q.PushTuple(T1(i % 2));  // 2 full pages + open
  int removed = q.PurgeMatching(P("[1]"));
  EXPECT_EQ(removed, 5);
  q.PushEos();
  int ones = 0, total = 0;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (!e.is_tuple()) continue;
      ++total;
      if (e.tuple().value(0).int64_value() == 1) ++ones;
    }
  }
  EXPECT_EQ(ones, 0);
  EXPECT_EQ(total, 5);
}

TEST(DataQueueChainTest, SpscContractPurgeLeavesOpenPageAlone) {
  DataQueue q(ChainOptions(/*page_size=*/4, /*single_thread=*/false));
  for (int i = 0; i < 10; ++i) q.PushTuple(T1(1));  // 8 published, 2 open
  int removed = q.PurgeMatching(P("[1]"));
  EXPECT_EQ(removed, 8);  // the open page is the producer's
  q.Flush();
  auto page = q.TryPopPage();
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->size(), 2u);
}

TEST(DataQueueChainTest, PromoteReordersWithinPagesFifoFirst) {
  DataQueue q(ChainOptions(/*page_size=*/4));
  for (int i = 0; i < 8; ++i) q.PushTuple(T1(i % 4));
  int moved = q.PromoteMatching(P("[3]"));
  EXPECT_GT(moved, 0);
  // Surgery staged the pages; later pushes go behind them.
  q.PushTuple(T1(99));
  q.PushEos();
  std::vector<int64_t> order;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) order.push_back(e.tuple().value(0).int64_value());
    }
  }
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], 3);            // promoted ahead within page 1
  EXPECT_EQ(order.back(), 99);       // post-surgery push stays last
}

TEST(DataQueueChainTest, ArenaTuplesSurviveHopAndSurgery) {
  DataQueue q(ChainOptions(/*page_size=*/4));
  // Build tuples in the queue's own open-page arena, the zero-copy
  // emit path, across several page flushes and a purge in between.
  for (int i = 0; i < 10; ++i) {
    TupleArena* arena = q.OpenPageArena();
    ASSERT_NE(arena, nullptr);
    Tuple t(arena, 2);
    t.Append(Value::StringIn(arena, "payload-" + std::to_string(i)));
    t.Append(Value::Int64(i));
    q.PushTuple(std::move(t));
    if (i == 5) {
      EXPECT_EQ(q.PurgeMatching(P("[*,<=1]")), 2);
    }
  }
  q.PushEos();
  std::vector<std::string> seen;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        seen.push_back(std::string(e.tuple().value(0).string_view()));
      }
    }
  }
  ASSERT_EQ(seen.size(), 8u);  // 10 pushed - 2 purged
  EXPECT_EQ(seen.front(), "payload-2");
  EXPECT_EQ(seen.back(), "payload-9");
}

TEST(DataQueueChainTest, TwoThreadProducerConsumer) {
  DataQueueOptions opts = ChainOptions(/*page_size=*/8,
                                       /*single_thread=*/false);
  DataQueue q(opts);
  constexpr int kN = 50000;
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) q.PushTuple(T1(i));
    q.PushEos();
  });
  int64_t next = 0;
  bool eos = false;
  DrainUntilEos(&q, [&](const Page& page) {
    for (const StreamElement& e : page.elements()) {
      if (e.is_tuple()) {
        ASSERT_EQ(e.tuple().value(0).int64_value(), next++);
      } else if (e.is_eos()) {
        eos = true;
      }
    }
  });
  producer.join();
  EXPECT_EQ(next, kN);
  EXPECT_TRUE(eos);
  EXPECT_TRUE(q.Drained());
}

// ---- DataQueue in both thread contracts ----
//
// Each case runs with assume_single_thread on (the SyncExecutor's
// contract: one thread pushes and pops) and off (the pooled
// scheduler's: producer and consumer may sit on different workers).
// None of these cases leaves tuples in the open page when it purges
// or promotes, so both contracts must give identical answers. Flush
// reasons, stats and PushPage ordering do not depend on the contract;
// stream_test and data_queue_invariants_test cover them.

class DataQueueContract : public ::testing::TestWithParam<bool> {
 protected:
  bool single_thread() const { return GetParam(); }
  DataQueueOptions Options(int page_size) const {
    return ChainOptions(page_size, single_thread());
  }
};

std::vector<int64_t> DrainTupleIds(DataQueue* q) {
  std::vector<int64_t> out;
  while (auto page = q->TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) out.push_back(e.tuple().value(0).int64_value());
    }
  }
  return out;
}

TEST_P(DataQueueContract, NotifierInstalledLateStillSeesEverything) {
  DataQueue q(Options(/*page_size=*/1));
  q.PushTuple(T1(1));  // page published before any notifier exists
  int notified = 0;
  q.SetConsumerNotifier([&] { ++notified; });
  EXPECT_EQ(notified, 0);
  // The pre-notifier page is discoverable by polling — the pooled
  // scheduler's install-then-enqueue startup relies on this.
  ASSERT_TRUE(q.HasPage());
  q.PushTuple(T1(2));
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(DrainTupleIds(&q), (std::vector<int64_t>{1, 2}));
}

TEST_P(DataQueueContract, PurgeMatchingPreservesPunctuationAndOrder) {
  DataQueue q(Options(/*page_size=*/4));
  for (int i = 0; i < 3; ++i) q.PushTuple(T1(i));
  q.PushPunctuation(Punctuation(P("[<=2]")));
  for (int i = 3; i < 6; ++i) q.PushTuple(T1(i));
  q.Flush();

  int removed = q.PurgeMatching(P("[<=1]"));  // drops 0, 1
  EXPECT_EQ(removed, 2);
  std::vector<int64_t> tuples;
  int punct_at = -1;
  int idx = 0;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        tuples.push_back(e.tuple().value(0).int64_value());
        ++idx;
      } else if (e.is_punct()) {
        punct_at = idx;
      }
    }
  }
  EXPECT_EQ(tuples, (std::vector<int64_t>{2, 3, 4, 5}));
  EXPECT_EQ(punct_at, 1);  // still between tuple 2 and tuple 3
}

TEST_P(DataQueueContract, PurgeDropsEmptiedPagesAndPopsServeSideFirst) {
  DataQueue q(Options(/*page_size=*/2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T1(1));  // two pages of 1s
  EXPECT_EQ(q.PurgeMatching(P("[1]")), 4);
  EXPECT_FALSE(q.HasPage());
  // New pages pushed AFTER the purge flow through normally.
  q.PushTuple(T1(7));
  q.PushTuple(T1(8));
  Page page = *q.TryPopPage();
  EXPECT_EQ(page.elements()[0].tuple().value(0).int64_value(), 7);
}

TEST_P(DataQueueContract, PurgeThenPushKeepsFifoAcrossSideAndChain) {
  DataQueue q(Options(/*page_size=*/2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T1(i));  // pages {0,1} {2,3}
  // Purge something that empties nothing: pages land in the side deque.
  EXPECT_EQ(q.PurgeMatching(P("[>=100]")), 0);
  // Newer pages go to the chain behind them.
  q.PushTuple(T1(4));
  q.PushTuple(T1(5));
  EXPECT_EQ(DrainTupleIds(&q), (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST_P(DataQueueContract, PromoteMatchingReordersWithinPagesOnly) {
  DataQueue q(Options(/*page_size=*/4));
  q.PushTuple(T1(1));
  q.PushTuple(T1(9));
  q.PushTuple(T1(2));
  q.PushTuple(T1(8));  // page flushes
  int moved = q.PromoteMatching(P("[>=8]"));
  EXPECT_GT(moved, 0);
  EXPECT_EQ(DrainTupleIds(&q), (std::vector<int64_t>{9, 8, 1, 2}));
}

TEST_P(DataQueueContract, PromoteNeverCrossesPunctuation) {
  DataQueue q(Options(/*page_size=*/100));
  q.PushTuple(T1(1));
  q.PushPunctuation(Punctuation(P("[<=1]")));  // flushes page 1
  q.PushTuple(T1(9));
  q.Flush();
  q.PromoteMatching(P("[9]"));
  Page first = *q.TryPopPage();
  EXPECT_TRUE(first.elements().back().is_punct());
  Page second = *q.TryPopPage();
  EXPECT_EQ(second.elements().front().tuple().value(0).int64_value(), 9);
}

TEST_P(DataQueueContract, PurgeRoutesThroughGlobalPatternCache) {
  // Feedback exploited at many hops purges with the same pattern at
  // every hop; the queue must fetch the compilation from the global
  // cache instead of recompiling.
  DataQueue q(Options(/*page_size=*/2));
  for (int i = 0; i < 4; ++i) q.PushTuple(T1(i));
  PunctPattern pattern = P("[>=900]");
  (void)q.PurgeMatching(pattern);  // primes the cache if needed
  uint64_t hits_before = CompiledPatternCache::Global().hits();
  (void)q.PurgeMatching(pattern);
  (void)q.PromoteMatching(pattern);
  EXPECT_GE(CompiledPatternCache::Global().hits(), hits_before + 2);
}

TEST_P(DataQueueContract, ArenaTuplesSurviveSurgery) {
  // Published pages holding arena-backed tuples are drained into the
  // staging deque, operated on, and served FIFO-first with payloads
  // intact.
  DataQueue q(Options(/*page_size=*/4));
  for (int i = 0; i < 8; ++i) {
    TupleArena* arena = q.OpenPageArena();
    ASSERT_NE(arena, nullptr);
    Tuple t(arena, 2);
    t.Append(Value::StringIn(arena, "chain-" + std::to_string(i)));
    t.Append(Value::Int64(i));
    q.PushTuple(std::move(t));
  }
  EXPECT_EQ(q.PurgeMatching(P("[*,4]")), 1);
  EXPECT_GT(q.PromoteMatching(P("[*,3]")), 0);
  q.PushEos();
  std::vector<std::string> seen;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        seen.push_back(std::string(e.tuple().value(0).string_view()));
      }
    }
  }
  ASSERT_EQ(seen.size(), 7u);
  EXPECT_EQ(seen[0], "chain-3");  // promoted within its page
}

// Checks one consumed stream: tuple ids strictly increasing, every
// punctuation bound equal to the last id before it, exactly one EOS.
struct StreamChecker {
  int64_t last_id = -1;
  int tuples = 0;
  int eos = 0;

  void operator()(const Page& page) {
    for (const StreamElement& e : page.elements()) {
      switch (e.kind()) {
        case ElementKind::kTuple: {
          int64_t id = e.tuple().value(0).int64_value();
          EXPECT_EQ(id, last_id + 1);
          last_id = id;
          ++tuples;
          break;
        }
        case ElementKind::kPunctuation: {
          Result<int64_t> bound =
              e.punct().pattern().attr(0).operand().AsInt64();
          ASSERT_TRUE(bound.ok());
          EXPECT_EQ(bound.value(), last_id);
          break;
        }
        case ElementKind::kEndOfStream:
          ++eos;
          break;
      }
    }
  }
};

TEST_P(DataQueueContract, RandomizedProducerConsumerPreservesStream) {
  // Punctuation flushes, segment turnover, and the EOS handshake under
  // load. Cross-thread: a real producer thread against a polling
  // consumer. Single-thread: one thread interleaves producer steps and
  // consumer pops in a seeded random order.
  const int kTuples = 20000;
  DataQueue q(Options(/*page_size=*/8));
  std::mt19937 punct_rng(42);
  auto produce = [&](int i) {
    q.PushTuple(T1(i));
    if (punct_rng() % 64 == 0) {
      q.PushPunctuation(Punctuation(PunctPattern::AllWildcard(1).With(
          0, AttrPattern::Le(Value::Int64(i)))));
    }
  };
  StreamChecker check;
  if (single_thread()) {
    std::mt19937 order_rng(7);
    int next = 0;
    while (next < kTuples) {
      if (order_rng() % 3 != 0) {
        produce(next++);
      } else if (std::optional<Page> page = q.TryPopPage()) {
        check(*page);
      }
    }
    q.PushEos();
    while (std::optional<Page> page = q.TryPopPage()) check(*page);
  } else {
    std::thread producer([&] {
      for (int i = 0; i < kTuples; ++i) produce(i);
      q.PushEos();
    });
    DrainUntilEos(&q, check);
    producer.join();
  }
  EXPECT_EQ(check.tuples, kTuples);
  EXPECT_EQ(check.eos, 1);
  EXPECT_TRUE(q.Drained());
}

TEST_P(DataQueueContract, ConcurrentStatsReadsAreRaceFree) {
  // A third thread hammering stats()/Drained()/HasPage() while the
  // stream flows — the introspection calls the scheduler's stall
  // report and tests make from outside the producer/consumer pair.
  const int kTuples = 5000;
  DataQueue q(Options(/*page_size=*/4));
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    uint64_t sink = 0;
    while (!stop.load()) {
      DataQueueStats s = q.stats();
      sink += s.tuples_pushed + s.pages_popped +
              static_cast<uint64_t>(q.HasPage()) +
              static_cast<uint64_t>(q.Drained());
    }
    EXPECT_GE(sink, 0u);
  });
  size_t popped = 0;
  auto count = [&](const Page& page) { popped += page.size(); };
  if (single_thread()) {
    for (int i = 0; i < kTuples; ++i) {
      q.PushTuple(T1(i));
      if (i % 16 == 0) {
        while (std::optional<Page> page = q.TryPopPage()) count(*page);
      }
    }
    q.PushEos();
    while (std::optional<Page> page = q.TryPopPage()) count(*page);
  } else {
    std::thread producer([&] {
      for (int i = 0; i < kTuples; ++i) q.PushTuple(T1(i));
      q.PushEos();
    });
    DrainUntilEos(&q, count);
    producer.join();
  }
  stop.store(true);
  observer.join();
  EXPECT_EQ(popped, static_cast<size_t>(kTuples) + 1);  // + the EOS
  EXPECT_EQ(q.stats().tuples_pushed, static_cast<uint64_t>(kTuples));
  EXPECT_TRUE(q.Drained());
}

INSTANTIATE_TEST_SUITE_P(
    BothContracts, DataQueueContract, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return info.param ? std::string("SingleThread")
                        : std::string("CrossThread");
    });

}  // namespace
}  // namespace nstream
