#include <gtest/gtest.h>

#include "stream/connection.h"
#include "stream/control_channel.h"
#include "stream/data_queue.h"
#include "testing/test_util.h"

namespace nstream {
namespace {

using testing_util::P;

Tuple T(int64_t v) { return TupleBuilder().I64(v).Build(); }

TEST(DataQueueTest, PageFlushesWhenFull) {
  DataQueue q(DataQueueOptions{.page_size = 3});
  q.PushTuple(T(1));
  q.PushTuple(T(2));
  EXPECT_FALSE(q.HasPage());
  q.PushTuple(T(3));
  ASSERT_TRUE(q.HasPage());
  Page page = *q.TryPopPage();
  EXPECT_EQ(page.size(), 3u);
  EXPECT_EQ(page.flush_reason(), FlushReason::kPageFull);
}

TEST(DataQueueTest, PunctuationFlushesImmediately) {
  // §5: a slow stream must not strand punctuation behind an unfilled
  // page.
  DataQueue q(DataQueueOptions{.page_size = 100});
  q.PushTuple(T(1));
  q.PushPunctuation(Punctuation(P("[<=5]")));
  ASSERT_TRUE(q.HasPage());
  Page page = *q.TryPopPage();
  EXPECT_EQ(page.size(), 2u);
  EXPECT_EQ(page.flush_reason(), FlushReason::kPunctuation);
  EXPECT_TRUE(page.elements().back().is_punct());
}

TEST(DataQueueTest, EosFlushesAndDrains) {
  DataQueue q;
  q.PushTuple(T(1));
  EXPECT_FALSE(q.Drained());
  q.PushEos();
  EXPECT_FALSE(q.Drained());  // page still queued
  Page page = *q.TryPopPage();
  EXPECT_TRUE(page.elements().back().is_eos());
  EXPECT_TRUE(q.Drained());
}

TEST(DataQueueTest, ExplicitFlush) {
  DataQueue q;
  q.PushTuple(T(1));
  q.Flush();
  ASSERT_TRUE(q.HasPage());
  EXPECT_EQ(q.TryPopPage()->flush_reason(), FlushReason::kExplicit);
  q.Flush();  // empty open page: no-op
  EXPECT_FALSE(q.HasPage());
}

TEST(DataQueueTest, StatsCountFlushReasons) {
  DataQueue q(DataQueueOptions{.page_size = 2});
  q.PushTuple(T(1));
  q.PushTuple(T(2));  // full
  q.PushPunctuation(Punctuation(P("[*]")));
  q.PushEos();
  DataQueueStats s = q.stats();
  EXPECT_EQ(s.tuples_pushed, 2u);
  EXPECT_EQ(s.puncts_pushed, 1u);
  EXPECT_EQ(s.pages_flushed_full, 1u);
  EXPECT_EQ(s.pages_flushed_punct, 1u);
  EXPECT_EQ(s.pages_flushed_eos, 1u);
}

TEST(DataQueueTest, PurgeMatchingRemovesOnlyMatchingTuples) {
  DataQueue q(DataQueueOptions{.page_size = 2});
  for (int i = 0; i < 6; ++i) q.PushTuple(T(i));
  q.PushPunctuation(Punctuation(P("[<=5]")));
  int removed = q.PurgeMatching(P("[<=2]"));
  EXPECT_EQ(removed, 3);  // 0,1,2
  // Remaining content preserves order and the punctuation.
  std::vector<int64_t> seen;
  bool saw_punct = false;
  while (auto page = q.TryPopPage()) {
    for (const StreamElement& e : page->elements()) {
      if (e.is_tuple()) {
        seen.push_back(e.tuple().value(0).int64_value());
      } else if (e.is_punct()) {
        saw_punct = true;
      }
    }
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 4, 5}));
  EXPECT_TRUE(saw_punct);
}

TEST(DataQueueTest, PurgeDropsEmptiedPages) {
  DataQueue q(DataQueueOptions{.page_size = 2});
  for (int i = 0; i < 4; ++i) q.PushTuple(T(1));
  EXPECT_EQ(q.PurgeMatching(P("[1]")), 4);
  EXPECT_FALSE(q.HasPage());
}

TEST(DataQueueTest, PromoteMatchingReordersWithinPages) {
  DataQueue q(DataQueueOptions{.page_size = 4});
  q.PushTuple(T(1));
  q.PushTuple(T(9));
  q.PushTuple(T(2));
  q.PushTuple(T(8));  // page flushes
  int moved = q.PromoteMatching(P("[>=8]"));
  EXPECT_GT(moved, 0);
  Page page = *q.TryPopPage();
  std::vector<int64_t> order;
  for (const StreamElement& e : page.elements()) {
    order.push_back(e.tuple().value(0).int64_value());
  }
  EXPECT_EQ(order, (std::vector<int64_t>{9, 8, 1, 2}));
}

TEST(DataQueueTest, PromoteNeverCrossesPunctuation) {
  DataQueue q(DataQueueOptions{.page_size = 100});
  q.PushTuple(T(1));
  q.PushPunctuation(Punctuation(P("[<=1]")));  // flushes page 1
  q.PushTuple(T(9));
  q.Flush();
  q.PromoteMatching(P("[9]"));
  // Tuple 9 is in a later page than the punctuation: it must not move
  // ahead of it.
  Page first = *q.TryPopPage();
  EXPECT_TRUE(first.elements().back().is_punct());
  Page second = *q.TryPopPage();
  EXPECT_EQ(second.elements().front().tuple().value(0).int64_value(), 9);
}

TEST(DataQueueTest, ConsumerNotifierFires) {
  DataQueue q(DataQueueOptions{.page_size = 1});
  int notified = 0;
  q.SetConsumerNotifier([&] { ++notified; });
  q.PushTuple(T(1));  // page full -> flush -> notify
  EXPECT_EQ(notified, 1);
  q.PushEos();
  EXPECT_EQ(notified, 2);
}

TEST(ControlChannelTest, FifoAndStats) {
  ControlChannel ch;
  ch.Push(ControlMessage::Feedback(
      FeedbackPunctuation::Assumed(P("[*]"))));
  ch.Push(ControlMessage::Shutdown());
  EXPECT_TRUE(ch.HasMessage());
  auto m1 = ch.TryPop();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(m1->type, ControlType::kFeedback);
  auto m2 = ch.TryPop();
  EXPECT_EQ(m2->type, ControlType::kShutdown);
  EXPECT_FALSE(ch.TryPop().has_value());
  EXPECT_EQ(ch.stats().messages_pushed, 2u);
  EXPECT_EQ(ch.stats().messages_popped, 2u);
}

TEST(ControlChannelTest, NotifierFiresOnPush) {
  ControlChannel ch;
  int notified = 0;
  ch.SetNotifier([&] { ++notified; });
  ch.Push(ControlMessage::RequestResult());
  EXPECT_EQ(notified, 1);
}

TEST(ConnectionTest, BundlesBothChannels) {
  Connection conn;
  conn.data->PushTuple(T(1));
  conn.control->Push(ControlMessage::Shutdown());
  EXPECT_TRUE(conn.control->HasMessage());
  conn.data->Flush();
  EXPECT_TRUE(conn.data->HasPage());
}

TEST(ElementTest, KindsAndAccessors) {
  StreamElement t = StreamElement::OfTuple(T(5));
  StreamElement p =
      StreamElement::OfPunct(Punctuation(P("[<=5]")));
  StreamElement e = StreamElement::Eos();
  EXPECT_TRUE(t.is_tuple());
  EXPECT_TRUE(p.is_punct());
  EXPECT_TRUE(e.is_eos());
  EXPECT_EQ(t.tuple().value(0).int64_value(), 5);
  EXPECT_NE(p.ToString().find("punct"), std::string::npos);
  EXPECT_EQ(e.ToString(), "<EOS>");
}

}  // namespace
}  // namespace nstream
