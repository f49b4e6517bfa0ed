// DataQueue surgery invariants: PurgeMatching and PromoteMatching must
// never move a tuple across a punctuation, must keep punctuation and
// EOS markers intact, and the stats counters must stay accurate.

#include <gtest/gtest.h>

#include <vector>

#include "stream/data_queue.h"
#include "types/tuple.h"

namespace nstream {
namespace {

Tuple T(int64_t id, int64_t v) {
  return TupleBuilder().I64(id).I64(v).Build();
}

Punctuation PunctLe(int64_t bound) {
  return Punctuation(PunctPattern::AllWildcard(2).With(
      0, AttrPattern::Le(Value::Int64(bound))));
}

PunctPattern MatchSecondGe(int64_t bound) {
  return PunctPattern::AllWildcard(2).With(
      1, AttrPattern::Ge(Value::Int64(bound)));
}

// Flatten all queued pages (in order) for inspection.
std::vector<StreamElement> Drain(DataQueue* q) {
  std::vector<StreamElement> out;
  while (auto page = q->TryPopPage()) {
    for (StreamElement& e : page->mutable_elements()) {
      out.push_back(std::move(e));
    }
  }
  return out;
}

TEST(DataQueueInvariants, PurgePreservesPunctuationAndOrder) {
  DataQueue q(DataQueueOptions{.page_size = 4});
  // Page 1: ids 0..2 + punct (flushes). Page 2: ids 3..5 (page full at
  // 4 would split; keep 3 then flush via EOS).
  for (int i = 0; i < 3; ++i) q.PushTuple(T(i, i % 2));
  q.PushPunctuation(PunctLe(2));
  for (int i = 3; i < 6; ++i) q.PushTuple(T(i, i % 2));
  q.PushEos();

  // Purge all tuples with odd second attribute (ids 1, 3, 5).
  int removed = q.PurgeMatching(MatchSecondGe(1));
  EXPECT_EQ(removed, 3);

  std::vector<StreamElement> left = Drain(&q);
  // Remaining: t0, t2, punct, t4, EOS — original relative order.
  ASSERT_EQ(left.size(), 5u);
  EXPECT_TRUE(left[0].is_tuple());
  EXPECT_EQ(left[0].tuple().value(0).int64_value(), 0);
  EXPECT_TRUE(left[1].is_tuple());
  EXPECT_EQ(left[1].tuple().value(0).int64_value(), 2);
  EXPECT_TRUE(left[2].is_punct());
  EXPECT_TRUE(left[3].is_tuple());
  EXPECT_EQ(left[3].tuple().value(0).int64_value(), 4);
  EXPECT_TRUE(left[4].is_eos());
}

TEST(DataQueueInvariants, PurgeDropsEmptiedPagesAndCountsAccurately) {
  DataQueue q(DataQueueOptions{.page_size = 2});
  for (int i = 0; i < 6; ++i) q.PushTuple(T(i, 1));  // 3 full pages
  EXPECT_EQ(q.stats().pages_flushed_full, 3u);

  int removed = q.PurgeMatching(MatchSecondGe(1));  // everything
  EXPECT_EQ(removed, 6);
  // All pages were emptied and must have been dropped: nothing to pop.
  EXPECT_FALSE(q.HasPage());
  q.PushEos();
  EXPECT_TRUE(q.TryPopPage().has_value());
  EXPECT_TRUE(q.Drained());
}

TEST(DataQueueInvariants, PurgeReachesTheOpenPage) {
  // Only a single-threaded queue lets the consumer-side purge touch
  // the producer's open page.
  DataQueue q(
      DataQueueOptions{.page_size = 100, .assume_single_thread = true});
  for (int i = 0; i < 5; ++i) q.PushTuple(T(i, 1));  // all in open page
  EXPECT_EQ(q.PurgeMatching(MatchSecondGe(1)), 5);
  q.PushEos();
  std::vector<StreamElement> left = Drain(&q);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_TRUE(left[0].is_eos());
}

TEST(DataQueueInvariants, PromoteNeverCrossesPunctuation) {
  DataQueue q(DataQueueOptions{.page_size = 8});
  // Page 1 (punct-flushed): t0(v=0), t1(v=9), punct.
  q.PushTuple(T(0, 0));
  q.PushTuple(T(1, 9));
  q.PushPunctuation(PunctLe(1));
  // Page 2: t2(v=0), t3(v=9), t4(v=0) — flushed by EOS.
  q.PushTuple(T(2, 0));
  q.PushTuple(T(3, 9));
  q.PushTuple(T(4, 0));
  q.PushEos();

  int moved = q.PromoteMatching(MatchSecondGe(5));  // v==9 tuples
  EXPECT_EQ(moved, 2);  // t1 within page 1, t3 within page 2

  std::vector<StreamElement> order = Drain(&q);
  ASSERT_EQ(order.size(), 7u);
  // Page 1 reordered to t1, t0, punct: the punctuation is still after
  // every tuple of its page, and no page-2 tuple jumped before it.
  EXPECT_EQ(order[0].tuple().value(0).int64_value(), 1);
  EXPECT_EQ(order[1].tuple().value(0).int64_value(), 0);
  EXPECT_TRUE(order[2].is_punct());
  // Page 2 reordered to t3, t2, t4 (stable among non-matching).
  EXPECT_EQ(order[3].tuple().value(0).int64_value(), 3);
  EXPECT_EQ(order[4].tuple().value(0).int64_value(), 2);
  EXPECT_EQ(order[5].tuple().value(0).int64_value(), 4);
  EXPECT_TRUE(order[6].is_eos());
}

TEST(DataQueueInvariants, PromoteCountsOnlyRealMoves) {
  DataQueue q(DataQueueOptions{.page_size = 4});
  q.PushTuple(T(0, 9));
  q.PushTuple(T(1, 9));
  q.Flush();
  // All tuples match: nothing actually jumps ahead of a non-match.
  EXPECT_EQ(q.PromoteMatching(MatchSecondGe(5)), 0);
  // None match: also no moves.
  EXPECT_EQ(q.PromoteMatching(MatchSecondGe(100)), 0);
}

TEST(DataQueueInvariants, StatsCountersAccurate) {
  DataQueue q(DataQueueOptions{.page_size = 2});
  q.PushTuple(T(0, 0));
  q.PushTuple(T(1, 0));       // full flush
  q.PushTuple(T(2, 0));
  q.PushPunctuation(PunctLe(2));  // punct flush
  q.PushTuple(T(3, 0));
  q.Flush();                  // explicit flush
  q.PushEos();                // EOS flush

  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 4u);
  EXPECT_EQ(s.puncts_pushed, 1u);
  EXPECT_EQ(s.pages_flushed_full, 1u);
  EXPECT_EQ(s.pages_flushed_punct, 1u);
  EXPECT_EQ(s.pages_flushed_explicit, 1u);
  EXPECT_EQ(s.pages_flushed_eos, 1u);
  EXPECT_EQ(s.pages_flushed_total(), 4u);

  int pops = 0;
  while (q.TryPopPage()) ++pops;
  EXPECT_EQ(pops, 4);
  EXPECT_EQ(q.stats().pages_popped, 4u);
  EXPECT_TRUE(q.Drained());
}

TEST(DataQueueInvariants, PushPageFlushesOpenPageFirst) {
  // The page-granular fast path (Exchange/ShardMerge) must never let a
  // whole page overtake tuples staged element-wise before it.
  DataQueue q(DataQueueOptions{.page_size = 128});
  q.PushTuple(T(1, 0));
  q.PushTuple(T(2, 0));  // both sit in the open page (128 > 2)

  Page whole;
  whole.Add(StreamElement::OfTuple(T(3, 0)));
  whole.Add(StreamElement::OfTuple(T(4, 0)));
  q.PushPage(std::move(whole));
  q.PushPunctuation(PunctLe(4));

  std::vector<StreamElement> all = Drain(&q);
  ASSERT_EQ(all.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(all[static_cast<size_t>(i)].is_tuple());
    EXPECT_EQ(all[static_cast<size_t>(i)].tuple().value(0),
              Value::Int64(i + 1));
  }
  EXPECT_TRUE(all[4].is_punct());

  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 4u);
  EXPECT_EQ(s.pages_pushed_whole, 1u);
  // Empty pages are dropped, not enqueued.
  q.PushPage(Page());
  EXPECT_EQ(q.stats().pages_pushed_whole, 1u);
}

}  // namespace
}  // namespace nstream
