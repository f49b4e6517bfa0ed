#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "types/schema.h"
#include "types/tuple.h"

namespace nstream {

// Heap allocations made through operator new in this binary (counting
// shims after the tests), so the builder's one-allocation contract is
// asserted, not inferred.
std::atomic<uint64_t> g_allocs{0};

namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"segment", ValueType::kInt64},
                       {"timestamp", ValueType::kTimestamp},
                       {"speed", ValueType::kDouble}});
}

TEST(SchemaTest, IndexOf) {
  SchemaPtr s = TestSchema();
  EXPECT_EQ(s->IndexOf("segment").value(), 0);
  EXPECT_EQ(s->IndexOf("speed").value(), 2);
  EXPECT_TRUE(s->IndexOf("nope").status().IsNotFound());
}

TEST(SchemaTest, Project) {
  SchemaPtr s = TestSchema();
  SchemaPtr p = s->Project({2, 0}).value();
  ASSERT_EQ(p->num_fields(), 2);
  EXPECT_EQ(p->field(0).name, "speed");
  EXPECT_EQ(p->field(1).name, "segment");
  EXPECT_FALSE(s->Project({5}).ok());
}

TEST(SchemaTest, Concat) {
  SchemaPtr s = TestSchema();
  SchemaPtr c = s->Concat(*s);
  EXPECT_EQ(c->num_fields(), 6);
  EXPECT_EQ(c->field(4).name, "timestamp");
}

TEST(SchemaTest, EqualsAndToString) {
  EXPECT_TRUE(TestSchema()->Equals(*TestSchema()));
  EXPECT_EQ(TestSchema()->ToString(),
            "(segment:int64, timestamp:timestamp, speed:double)");
}

TEST(TupleTest, BuilderAndAccess) {
  Tuple t = TupleBuilder().I64(3).Ts(9000).D(51.5).Build();
  ASSERT_EQ(t.size(), 3);
  EXPECT_EQ(t.value(0).int64_value(), 3);
  EXPECT_EQ(t.value(1).timestamp_value(), 9000);
  EXPECT_DOUBLE_EQ(t.value(2).double_value(), 51.5);
}

TEST(TupleTest, Metadata) {
  Tuple t = TupleBuilder().I64(1).Build();
  EXPECT_EQ(t.id(), 0);
  EXPECT_EQ(t.arrival_ms(), -1);
  t.set_id(42);
  t.set_arrival_ms(100);
  EXPECT_EQ(t.id(), 42);
  EXPECT_EQ(t.arrival_ms(), 100);
}

TEST(TupleTest, EqualityIgnoresMetadata) {
  Tuple a = TupleBuilder().I64(1).D(2.0).Build();
  Tuple b = TupleBuilder().I64(1).D(2.0).Build();
  b.set_id(99);
  EXPECT_EQ(a, b);
}

TEST(TupleTest, HashSubsetMatchesEqualSubsets) {
  Tuple a = TupleBuilder().I64(7).I64(3).D(1.0).Build();
  Tuple b = TupleBuilder().I64(7).I64(3).D(9.9).Build();
  EXPECT_EQ(a.HashSubset({0, 1}), b.HashSubset({0, 1}));
  EXPECT_TRUE(a.EqualsSubset(b, {0, 1}, {0, 1}));
  EXPECT_FALSE(a.EqualsSubset(b, {2}, {2}));
}

TEST(TupleTest, EqualsSubsetCrossPositions) {
  Tuple a = TupleBuilder().I64(5).S("x").Build();
  Tuple b = TupleBuilder().S("x").I64(5).Build();
  EXPECT_TRUE(a.EqualsSubset(b, {0, 1}, {1, 0}));
}

TEST(TupleTest, ToString) {
  Tuple t = TupleBuilder().I64(1).Null().S("hi").Build();
  EXPECT_EQ(t.ToString(), "<1, null, 'hi'>");
}

uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(TupleBuilderTest, EmptyTupleAllocatesNothing) {
  const uint64_t before = Allocs();
  Tuple t = TupleBuilder().Build();
  EXPECT_EQ(Allocs() - before, 0u);
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.ToString(), "<>");
}

TEST(TupleBuilderTest, ThreeAttributesOneExactAllocation) {
  TupleBuilder b;
  const uint64_t before = Allocs();
  b.I64(3).Ts(9000).D(51.5);
  EXPECT_EQ(Allocs() - before, 0u);  // staged inline
  Tuple t = b.Build();
  EXPECT_EQ(Allocs() - before, 1u);
  ASSERT_EQ(t.size(), 3);
  EXPECT_EQ(t.value(0).int64_value(), 3);
  EXPECT_EQ(t.value(1).timestamp_value(), 9000);
  EXPECT_DOUBLE_EQ(t.value(2).double_value(), 51.5);
}

TEST(TupleBuilderTest, NineAttributesSpillPastTheInlineEight) {
  TupleBuilder b;
  const uint64_t before = Allocs();
  for (int i = 0; i < 8; ++i) b.I64(i);
  EXPECT_EQ(Allocs() - before, 0u);
  b.Null();  // the ninth spills
  Tuple t = b.Build();
  EXPECT_EQ(Allocs() - before, 2u);  // the spill, then the tuple
  ASSERT_EQ(t.size(), 9);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(t.value(i).int64_value(), i);
  EXPECT_TRUE(t.value(8).is_null());
}

TEST(TupleBuilderTest, StringAttributesSurviveStaging) {
  const std::string big(40, 'x');  // past the inline-string cap
  Tuple t = TupleBuilder().S("hi").I64(7).S(big).B(true).Build();
  ASSERT_EQ(t.size(), 4);
  EXPECT_EQ(t.value(0).string_view(), "hi");
  EXPECT_EQ(t.value(2).string_view(), big);
  EXPECT_TRUE(t.value(3).bool_value());
  // Spilled strings too, and a builder reused after Build().
  TupleBuilder b;
  for (int i = 0; i < 9; ++i) b.S(big + std::to_string(i));
  Tuple spilled = b.Build();
  ASSERT_EQ(spilled.size(), 9);
  EXPECT_EQ(spilled.value(8).string_view(), big + "8");
  Tuple again = b.S("again").Build();
  ASSERT_EQ(again.size(), 1);
  EXPECT_EQ(again.value(0).string_view(), "again");
}

}  // namespace
}  // namespace nstream

void* operator new(std::size_t n) {
  nstream::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  nstream::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined free() with the allocation expression rather
// than with the replaced operator new above, and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
