// SpscRing, the bounded lock-free segment of SpscChain: capacity
// rounding, wraparound, and the full/empty discipline (a failed push
// must leave its item intact). DataQueue's behaviour over the chain is
// covered in spsc_chain_test.cc.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "stream/spsc_ring.h"

namespace nstream {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRing, WraparoundManyTimesOverSmallCapacity) {
  // 1000 items through a 4-slot ring: the indices wrap 250 times and
  // every item must come out exactly once, in order.
  SpscRing<int> ring(4);
  int next_push = 0;
  int next_pop = 0;
  while (next_pop < 1000) {
    // Fill as far as possible, then drain a few — exercises both the
    // full and the partially-full wrap paths.
    while (next_push < 1000) {
      int v = next_push;
      if (!ring.TryPush(std::move(v))) break;
      ++next_push;
    }
    for (int k = 0; k < 3 && next_pop < next_push; ++k) {
      std::optional<int> out = ring.TryPop();
      ASSERT_TRUE(out.has_value());
      EXPECT_EQ(*out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_FALSE(ring.TryPop().has_value());
  EXPECT_TRUE(ring.ApproxEmpty());
}

TEST(SpscRing, TryPushOnFullRingLeavesItemIntact) {
  SpscRing<std::vector<int>> ring(2);
  EXPECT_TRUE(ring.TryPush({1}));
  EXPECT_TRUE(ring.TryPush({2}));
  std::vector<int> spare = {3, 4, 5};
  EXPECT_FALSE(ring.TryPush(std::move(spare)));
  // Not moved-from: a failed push must not consume the page.
  EXPECT_EQ(spare.size(), 3u);
  EXPECT_EQ(ring.ApproxSize(), 2u);
}

}  // namespace
}  // namespace nstream
