// Differential test of the join's window-slab state against a
// nested-loop reference join. Each seed draws a stream script: tuples
// on both inputs spread over several open windows, stragglers behind
// the watermark, punctuation on both sides, and Table 2 feedback of
// all four shapes (¬[*,j,*], ¬[l,*,*], ¬[*,*,r], ¬[l,*,r]). The same
// script is driven straight into SymmetricHashJoin through the element
// walk, the row adjacency walk and the columnar walk, with page arenas
// on and off, optionally with left-outer emission, the adaptive gate,
// forced hash collisions, and a snapshot → restore into a fresh join
// mid-stream. Results, table_size and state_purged must equal the
// reference's. A failure names its seed; rerun one seed with
// NSTREAM_JOIN_DIFF_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ops/join_state.h"
#include "ops/symmetric_hash_join.h"
#include "recovery/snapshot.h"
#include "stream/columnar.h"
#include "stream/page.h"
#include "types/tuple_arena.h"

namespace nstream {
namespace {

constexpr int64_t kSlide = 100;  // tumbling window, data-time ms

SchemaPtr SideSchema() {
  return Schema::Make({{"k", ValueType::kInt64},
                       {"ts", ValueType::kTimestamp},
                       {"v", ValueType::kInt64}});
}

// Output: (k, ts, v) of the left, then (ts, v) of the right.
enum class Shape { kJoinAttr, kLeftOnly, kRightOnly, kSplit };

struct Event {
  enum Kind { kTuple, kPunct, kFeedback } kind = kTuple;
  int side = 0;
  Tuple tuple;
  int64_t bound = 0;  // kPunct: ts <= bound
  FeedbackPunctuation fb;
};

struct Features {
  bool window = true;
  bool left_outer = false;
  bool gate = false;
  bool collide = false;
  bool paged = true;
  int snapshot_at = -1;  // event index, or -1
};

enum class Path { kElement, kRow, kColumnar };

const char* PathName(Path p) {
  switch (p) {
    case Path::kElement: return "element";
    case Path::kRow: return "row";
    case Path::kColumnar: return "columnar";
  }
  return "?";
}

bool GateOf(const Tuple& t) { return t.value(2).int64_value() % 3 != 0; }

FeedbackPunctuation MakeFeedback(Shape shape, int64_t a, int64_t b) {
  PunctPattern p = PunctPattern::AllWildcard(5);
  switch (shape) {
    case Shape::kJoinAttr:
      p = p.With(0, AttrPattern::Eq(Value::Int64(a)));
      break;
    case Shape::kLeftOnly:
      p = p.With(2, AttrPattern::Eq(Value::Int64(a)));
      break;
    case Shape::kRightOnly:
      p = p.With(4, AttrPattern::Eq(Value::Int64(a)));
      break;
    case Shape::kSplit:
      p = p.With(2, AttrPattern::Eq(Value::Int64(a)))
              .With(4, AttrPattern::Eq(Value::Int64(b)));
      break;
  }
  return FeedbackPunctuation::Assumed(std::move(p));
}

// A stream script: per side a data-time cursor that moves forward,
// tuples placed up to two windows ahead of it (several windows open)
// and some behind the side's last punctuation (stragglers).
std::vector<Event> DrawScript(std::mt19937* rng, const Features& f) {
  std::vector<Event> out;
  int64_t cursor[2] = {0, 0};
  int64_t punct[2] = {-1, -1};
  int64_t next_id = 1;
  const int n = 150 + static_cast<int>((*rng)() % 250);
  for (int i = 0; i < n; ++i) {
    Event e;
    const uint32_t roll = (*rng)() % 100;
    e.side = static_cast<int>((*rng)() % 2);
    if (roll < 8 && f.window) {
      e.kind = Event::kPunct;
      cursor[e.side] += static_cast<int64_t>((*rng)() % 120);
      e.bound = std::max(punct[e.side], cursor[e.side] - 1);
      punct[e.side] = e.bound;
    } else if (roll < 11) {
      e.kind = Event::kFeedback;
      e.fb = MakeFeedback(static_cast<Shape>((*rng)() % 4),
                          static_cast<int64_t>((*rng)() % 8),
                          static_cast<int64_t>((*rng)() % 8));
    } else {
      int64_t ts = cursor[e.side] +
                   static_cast<int64_t>((*rng)() % (2 * kSlide + 50));
      if ((*rng)() % 10 == 0) {
        ts = std::max<int64_t>(0, punct[e.side] -
                                      static_cast<int64_t>((*rng)() % 150));
      }
      e.tuple = TupleBuilder()
                    .I64(static_cast<int64_t>((*rng)() % 7))
                    .Ts(ts)
                    .I64(static_cast<int64_t>((*rng)() % 8))
                    .Build();
      e.tuple.set_id(next_id++);
    }
    out.push_back(std::move(e));
  }
  return out;
}

// ---- Reference: nested loops over plain vectors -----------------------

struct Outcome {
  std::multiset<std::string> rows;
  size_t table_size[2] = {0, 0};
  uint64_t state_purged = 0;
  uint64_t input_guard_drops = 0;
  uint64_t output_guard_drops = 0;
};

class ReferenceJoin {
 public:
  explicit ReferenceJoin(const Features& f) : f_(f) {}

  void Tuple_(int side, const Tuple& t) {
    for (const PunctPattern& g : in_guards_[side]) {
      if (g.Matches(t)) {
        ++out_.input_guard_drops;
        return;
      }
    }
    const int64_t wid = WidOf(t);
    if (f_.window && wid <= watermark_[side]) return;  // straggler
    const bool gated = side == 0 && f_.gate && !GateOf(t);
    bool matched = false;
    if (!gated) {
      for (Entry& e : entries_[1 - side]) {
        if (e.wid != wid || e.t.value(0) != t.value(0)) continue;
        if (side == 1 && e.gated) continue;
        e.matched = true;
        matched = true;
        side == 0 ? Emit(t, &e.t) : Emit(e.t, &t);
      }
    }
    entries_[side].push_back({t, wid, matched, gated});
  }

  void Punct(int side, int64_t bound) {
    if (!f_.window) return;
    const int64_t through = FloorDiv(bound + 1, kSlide) - 1;
    if (through <= watermark_[side]) return;
    watermark_[side] = through;
    const int other = 1 - side;
    std::vector<Entry> kept;
    for (Entry& e : entries_[other]) {
      if (e.wid > through) {
        kept.push_back(std::move(e));
        continue;
      }
      if (other == 0 && f_.left_outer && !e.matched) Emit(e.t, nullptr);
      ++out_.state_purged;
    }
    entries_[other] = std::move(kept);
  }

  // Table 2, decided from the shape the script drew: which inputs the
  // constrained output attributes come from.
  void Feedback(const FeedbackPunctuation& fb) {
    const PunctPattern& p = fb.pattern();
    const bool left = !p.attr(0).is_wildcard() || !p.attr(2).is_wildcard();
    const bool right = !p.attr(0).is_wildcard() || !p.attr(4).is_wildcard();
    if (left && right && p.attr(0).is_wildcard()) {  // ¬[l,*,r]
      out_guards_.push_back(p);
      return;
    }
    for (int side = 0; side < 2; ++side) {
      if (!(side == 0 ? left : right)) continue;
      PunctPattern in = PunctPattern::AllWildcard(3);
      if (!p.attr(0).is_wildcard()) in = in.With(0, p.attr(0));
      if (side == 0 && !p.attr(2).is_wildcard()) in = in.With(2, p.attr(2));
      if (side == 1 && !p.attr(4).is_wildcard()) in = in.With(2, p.attr(4));
      std::vector<Entry> kept;
      for (Entry& e : entries_[side]) {
        if (in.Matches(e.t)) {
          ++out_.state_purged;
        } else {
          kept.push_back(std::move(e));
        }
      }
      entries_[side] = std::move(kept);
      in_guards_[side].push_back(std::move(in));
    }
  }

  Outcome Finish() {
    Outcome o = out_;
    o.table_size[0] = entries_[0].size();
    o.table_size[1] = entries_[1].size();
    return o;
  }

  void Eos() {
    if (!f_.left_outer) return;
    for (const Entry& e : entries_[0]) {
      if (!e.matched) Emit(e.t, nullptr);
    }
  }
  std::multiset<std::string> rows() const { return out_.rows; }

 private:
  struct Entry {
    Tuple t;
    int64_t wid;
    bool matched;
    bool gated;
  };

  static int64_t FloorDiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
    return q;
  }
  int64_t WidOf(const Tuple& t) const {
    return f_.window ? FloorDiv(t.value(1).timestamp_value(), kSlide) : 0;
  }

  void Emit(const Tuple& l, const Tuple* r) {
    Tuple out = TupleBuilder()
                    .V(l.value(0))
                    .V(l.value(1))
                    .V(l.value(2))
                    .V(r != nullptr ? r->value(1) : Value::Null())
                    .V(r != nullptr ? r->value(2) : Value::Null())
                    .Build();
    for (const PunctPattern& g : out_guards_) {
      if (g.Matches(out)) {
        ++out_.output_guard_drops;
        return;
      }
    }
    out_.rows.insert(out.ToString());
  }

  Features f_;
  std::vector<Entry> entries_[2];
  int64_t watermark_[2] = {INT64_MIN, INT64_MIN};
  std::vector<PunctPattern> in_guards_[2];
  std::vector<PunctPattern> out_guards_;
  Outcome out_;
};

// ---- The engine's join, driven directly ------------------------------

class CollectingContext final : public ExecContext {
 public:
  explicit CollectingContext(bool paged) : paged_(paged) {}
  void EmitTuple(int, Tuple t) override { rows.insert(t.ToString()); }
  void EmitPunct(int, Punctuation) override {}
  void EmitEos(int) override {}
  void EmitPage(int, Page&& page) override {
    page.EnsureRowLayout();
    for (const StreamElement& e : page.elements()) {
      if (e.is_tuple()) rows.insert(e.tuple().ToString());
    }
  }
  bool PagedEmissionPreferred() const override { return paged_; }
  void EmitFeedback(int, FeedbackPunctuation) override {}
  void EmitControl(int, ControlMessage) override {}
  TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

  std::multiset<std::string> rows;

 private:
  bool paged_;
};

JoinOptions OptionsFor(const Features& f, Path path) {
  JoinOptions o;
  o.left_keys = {0};
  o.right_keys = {0};
  o.left_ts = 1;
  o.right_ts = 1;
  o.window_join = f.window;
  o.window = WindowSpec{kSlide, kSlide};
  o.left_outer = f.left_outer;
  o.page_batched_probe = path != Path::kElement;
  o.output_page_size = 8;
  if (f.gate) {
    o.left_gate = GateOf;
    o.gate_feedback_horizon = f.window ? 1 : 0;
  }
  if (f.collide) {
    // Three hash values for seven keys, equal across windows.
    o.key_hash_override = [](const Tuple& t, int, int64_t) {
      return static_cast<uint64_t>(t.value(0).int64_value() % 3);
    };
  }
  return o;
}

std::unique_ptr<SymmetricHashJoin> OpenJoin(const JoinOptions& o,
                                            ExecContext* ctx) {
  auto join = std::make_unique<SymmetricHashJoin>("join", o);
  EXPECT_TRUE(join->SetInputSchema(0, SideSchema()).ok());
  EXPECT_TRUE(join->SetInputSchema(1, SideSchema()).ok());
  EXPECT_TRUE(join->InferSchemas().ok());
  EXPECT_TRUE(join->Open(ctx).ok());
  return join;
}

Page TuplePage(const std::vector<Tuple>& run, Path path) {
  Page page;
  if (path == Path::kColumnar) {
    ColumnarBlock* b =
        page.BeginColumnar(3, static_cast<uint32_t>(run.size()));
    if (b != nullptr) {
      for (const Tuple& t : run) {
        const uint32_t row = b->AddRow(t.id(), -1);
        for (int c = 0; c < 3; ++c) b->Set(static_cast<uint32_t>(c), row, t.value(c));
      }
      return page;
    }
  }
  for (const Tuple& t : run) page.AddTuple(Tuple(t));
  return page;
}

Outcome RunEngine(const std::vector<Event>& script, const Features& f,
                  Path path, uint64_t page_seed) {
  const JoinOptions o = OptionsFor(f, path);
  CollectingContext ctx(f.paged);
  std::unique_ptr<SymmetricHashJoin> join = OpenJoin(o, &ctx);
  Outcome out;
  std::mt19937 rng(static_cast<uint32_t>(page_seed));

  // Tuples of one side are batched into pages of 1..16; a page ends
  // at any other event. Punctuation rides in a row page of its own.
  std::vector<Tuple> run;
  int run_side = 0;
  size_t run_cap = 1;
  auto flush = [&] {
    if (run.empty()) return;
    EXPECT_TRUE(
        join->ProcessPage(run_side, TuplePage(run, path), nullptr).ok());
    run.clear();
  };
  for (size_t i = 0; i < script.size(); ++i) {
    const Event& e = script[i];
    if (static_cast<int>(i) == f.snapshot_at) {
      flush();
      SnapshotWriter w;
      EXPECT_TRUE(join->SnapshotState(&w).ok());
      out.state_purged += join->stats().state_purged;
      out.input_guard_drops += join->stats().input_guard_drops;
      out.output_guard_drops += join->stats().output_guard_drops;
      join = OpenJoin(o, &ctx);
      SnapshotReader r(w.buffer());
      EXPECT_TRUE(join->RestoreState(&r).ok());
      // The restored state snapshots to the same bytes.
      SnapshotWriter again;
      EXPECT_TRUE(join->SnapshotState(&again).ok());
      EXPECT_EQ(again.buffer(), w.buffer());
    }
    if (e.kind == Event::kTuple) {
      if (!run.empty() && (e.side != run_side || run.size() >= run_cap)) {
        flush();
      }
      if (run.empty()) {
        run_side = e.side;
        run_cap = 1 + rng() % 16;
      }
      run.push_back(e.tuple);
      continue;
    }
    flush();
    if (e.kind == Event::kPunct) {
      Page page;
      page.Add(StreamElement::OfPunct(
          Punctuation(PunctPattern::AllWildcard(3).With(
              1, AttrPattern::Le(Value::Timestamp(e.bound))))));
      EXPECT_TRUE(join->ProcessPage(e.side, std::move(page), nullptr).ok());
    } else {
      EXPECT_TRUE(join->ProcessFeedback(0, e.fb).ok());
    }
  }
  flush();
  out.table_size[0] = join->table_size(0);
  out.table_size[1] = join->table_size(1);
  out.state_purged += join->stats().state_purged;
  out.input_guard_drops += join->stats().input_guard_drops;
  out.output_guard_drops += join->stats().output_guard_drops;
  EXPECT_TRUE(join->OnAllInputsEos().ok());
  out.rows = std::move(ctx.rows);
  return out;
}

Features DrawFeatures(std::mt19937* rng) {
  Features f;
  f.window = (*rng)() % 4 != 0;
  f.left_outer = (*rng)() % 2 == 0;
  f.gate = (*rng)() % 3 == 0;
  f.collide = (*rng)() % 3 == 0;
  f.paged = (*rng)() % 4 != 0;
  return f;
}

std::string Describe(const Features& f) {
  std::string s;
  s += f.window ? "window" : "unwindowed";
  if (f.left_outer) s += " left_outer";
  if (f.gate) s += " left_gate";
  if (f.collide) s += " collide";
  if (!f.paged) s += " element-emission";
  if (f.snapshot_at >= 0) {
    s += " snapshot@" + std::to_string(f.snapshot_at);
  }
  return s;
}

// What the reference saw across seeds, so a vacuous pass shows.
struct Totals {
  uint64_t rows = 0;
  uint64_t purged = 0;
  uint64_t input_guard_drops = 0;
  uint64_t output_guard_drops = 0;
};

void CheckSeed(uint64_t seed, Totals* totals) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  Features f = DrawFeatures(&rng);
  std::vector<Event> script = DrawScript(&rng, f);
  if (rng() % 2 == 0) {
    f.snapshot_at = static_cast<int>(rng() % script.size());
  }

  ReferenceJoin ref(f);
  for (const Event& e : script) {
    switch (e.kind) {
      case Event::kTuple: ref.Tuple_(e.side, e.tuple); break;
      case Event::kPunct: ref.Punct(e.side, e.bound); break;
      case Event::kFeedback: ref.Feedback(e.fb); break;
    }
  }
  Outcome want = ref.Finish();
  ref.Eos();
  want.rows = ref.rows();
  totals->rows += want.rows.size();
  totals->purged += want.state_purged;
  totals->input_guard_drops += want.input_guard_drops;
  totals->output_guard_drops += want.output_guard_drops;

  struct Variant {
    Path path;
    bool arenas;
  };
  const Variant variants[] = {{Path::kElement, true},
                              {Path::kElement, false},
                              {Path::kRow, true},
                              {Path::kRow, false},
                              {Path::kColumnar, true}};
  for (const Variant& v : variants) {
    ScopedTupleArenasEnabled arenas(v.arenas);
    SCOPED_TRACE("seed " + std::to_string(seed) + " (" + Describe(f) +
                 ", " + PathName(v.path) + " walk, arenas " +
                 (v.arenas ? "on" : "off") +
                 "); rerun with NSTREAM_JOIN_DIFF_SEED=" +
                 std::to_string(seed));
    Outcome got = RunEngine(script, f, v.path, seed * 31 + 7);
    EXPECT_EQ(got.table_size[0], want.table_size[0]);
    EXPECT_EQ(got.table_size[1], want.table_size[1]);
    EXPECT_EQ(got.state_purged, want.state_purged);
    EXPECT_EQ(got.input_guard_drops, want.input_guard_drops);
    EXPECT_EQ(got.output_guard_drops, want.output_guard_drops);
    EXPECT_EQ(got.rows.size(), want.rows.size());
    EXPECT_TRUE(got.rows == want.rows);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(JoinSlabTest, ChainsKeepInsertionOrderAndSurviveRemoval) {
  JoinSlab slab(7);
  for (int64_t i = 0; i < 100; ++i) {
    slab.Insert(static_cast<uint64_t>(i % 5),
                TupleBuilder().I64(i % 5).I64(i).Build());
  }
  auto chain = [&slab](uint64_t key) {
    std::vector<int64_t> seq;
    for (uint32_t i = slab.Head(key); i != JoinSlab::kNil;
         i = slab.at(i).next) {
      if (slab.at(i).key == key) {
        seq.push_back(slab.at(i).tuple.value(1).int64_value());
      }
    }
    return seq;
  };
  std::vector<int64_t> want;
  for (int64_t i = 3; i < 100; i += 5) want.push_back(i);
  EXPECT_EQ(chain(3), want);
  // Remove every even payload: order kept, chains re-linked.
  EXPECT_EQ(slab.RemoveIf([](const JoinSlab::Entry& e) {
              return e.tuple.value(1).int64_value() % 2 == 0;
            }),
            50u);
  want.clear();
  for (int64_t i = 3; i < 100; i += 10) want.push_back(i);
  EXPECT_EQ(chain(3), want);
  EXPECT_EQ(slab.size(), 50u);
}

TEST(JoinSlabTest, RepeatedRemovalKeepsTheArenaBounded) {
  // A join without windows never drops its slab; feedback purges must
  // not leave dead payloads piling up in the arena.
  JoinSlab slab(0);
  int64_t next = 0;
  size_t peak = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i, ++next) {
      slab.Insert(static_cast<uint64_t>(next),
                  TupleBuilder().I64(next).S(std::string(40, 'p')).Build());
    }
    slab.RemoveIf([&](const JoinSlab::Entry& e) {
      return e.tuple.value(0).int64_value() < next - 100;
    });
    peak = std::max(peak, slab.arena_bytes());
    ASSERT_EQ(slab.size(), 100u);
  }
  // Live state is 100 entries; a few generations of dead payload at most.
  EXPECT_LT(peak, 8 * 100 * (2 * sizeof(Value) + 40));
  EXPECT_EQ(slab.at(0).tuple.value(1).string_view(), std::string(40, 'p'));
}

TEST(JoinStateDifferential, MatchesNestedLoopReference) {
  Totals totals;
  if (const char* one = std::getenv("NSTREAM_JOIN_DIFF_SEED")) {
    CheckSeed(std::strtoull(one, nullptr, 10), &totals);
    return;
  }
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    CheckSeed(seed, &totals);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(totals.rows, 1000u);
  EXPECT_GT(totals.purged, 1000u);
  EXPECT_GT(totals.input_guard_drops, 100u);
  EXPECT_GT(totals.output_guard_drops, 10u);
  std::printf("rows %llu, purged %llu, input guard drops %llu, output "
              "guard drops %llu\n",
              static_cast<unsigned long long>(totals.rows),
              static_cast<unsigned long long>(totals.purged),
              static_cast<unsigned long long>(totals.input_guard_drops),
              static_cast<unsigned long long>(totals.output_guard_drops));
}

TEST(JoinStateDifferential, EveryFeatureIsDrawn) {
  // The seed range above must actually reach each configuration the
  // suite claims to cover.
  int window = 0, unwindowed = 0, outer = 0, gate = 0, collide = 0,
      element_emission = 0, snapshot = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed));
    Features f = DrawFeatures(&rng);
    std::vector<Event> script = DrawScript(&rng, f);
    snapshot += rng() % 2 == 0;
    window += f.window;
    unwindowed += !f.window;
    outer += f.left_outer;
    gate += f.gate;
    collide += f.collide;
    element_emission += !f.paged;
  }
  EXPECT_GT(window, 10);
  EXPECT_GT(unwindowed, 10);
  EXPECT_GT(outer, 10);
  EXPECT_GT(gate, 10);
  EXPECT_GT(collide, 10);
  EXPECT_GT(element_emission, 10);
  EXPECT_GT(snapshot, 10);
}

}  // namespace
}  // namespace nstream
