// Join state partitioned by window id (WID), as NiagaraST keeps it:
// each input of a SymmetricHashJoin holds one JoinSlab per open
// window (one slab, wid 0, for a join without windows). A slab is a
// contiguous entry array in insertion order, a power-of-two chained
// index of u32 head/tail/next links, and a TupleArena holding the
// entries' payloads. Punctuation that closes a window drops the whole
// slab at once; the next window reuses its arrays and arena chunks,
// so a steady windowed join allocates nothing per stored tuple.

#ifndef NSTREAM_OPS_JOIN_STATE_H_
#define NSTREAM_OPS_JOIN_STATE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "types/tuple.h"
#include "types/tuple_arena.h"

namespace nstream {

class JoinSlab {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Entry {
    // Backed by the slab's arena; owned when page arenas are off.
    Tuple tuple;
    // The join's full 64-bit (wid, key-subset) hash. A probe compares
    // it first, then checks the key values themselves.
    uint64_t key = 0;
    uint32_t next = kNil;  // next entry of the same index bucket
    bool matched = false;
    bool gated = false;  // failed the adaptive gate; outer-emits only
  };

  explicit JoinSlab(int64_t wid) : wid_(wid) {}
  JoinSlab(const JoinSlab&) = delete;
  JoinSlab& operator=(const JoinSlab&) = delete;

  int64_t wid() const { return wid_; }
  size_t size() const { return entries_.size(); }
  /// Entries in insertion order.
  const std::vector<Entry>& entries() const { return entries_; }
  Entry& at(uint32_t i) { return entries_[i]; }
  /// Payload bytes in the slab's arena, live and dead.
  size_t arena_bytes() const {
    return arena_ != nullptr ? arena_->bytes_used() : 0;
  }

  /// First entry of the bucket `key` falls in, or kNil. Follow
  /// Entry::next; entries whose key differs share the bucket only.
  uint32_t Head(uint64_t key) const {
    return entries_.empty() ? kNil : head_[key & mask_];
  }

  /// Appends an entry. The payload is copied into the slab's arena; with
  /// arenas off an rvalue tuple is moved in and promoted instead.
  Entry& Insert(uint64_t key, const Tuple& t) {
    return Link(key, Stored(t));
  }
  Entry& Insert(uint64_t key, Tuple&& t) {
    if (TupleArenas::enabled()) return Link(key, Stored(t));
    t.Promote();
    return Link(key, std::move(t));
  }

  /// Removes every entry `pred` accepts, keeping the rest in order, and
  /// rebuilds the index. Payloads of removed entries stay in the arena
  /// until dead ones outnumber live ones; then the live payloads move
  /// to a fresh arena, so repeated removals keep memory bounded.
  /// Returns how many entries were removed.
  template <typename Pred>
  size_t RemoveIf(Pred pred) {
    size_t kept = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (pred(entries_[i])) {
        if (entries_[i].tuple.arena_backed()) ++dead_payloads_;
        continue;
      }
      if (kept != i) entries_[kept] = std::move(entries_[i]);
      ++kept;
    }
    const size_t removed = entries_.size() - kept;
    if (removed == 0) return 0;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(kept),
                   entries_.end());
    if (dead_payloads_ > entries_.size()) CompactArena();
    Relink(head_.size());
    return removed;
  }

  /// Empties the slab for reuse under window `wid`: the entry array,
  /// the index and the arena chunks keep their capacity.
  void Reset(int64_t wid) {
    wid_ = wid;
    entries_.clear();
    std::fill(head_.begin(), head_.end(), kNil);
    std::fill(tail_.begin(), tail_.end(), kNil);
    if (arena_ != nullptr) arena_->Reset();
    dead_payloads_ = 0;
  }

 private:
  Tuple Stored(const Tuple& t) {
    if (!TupleArenas::enabled()) return t;  // deep owned copy
    if (arena_ == nullptr) arena_ = std::make_unique<TupleArena>();
    Tuple out(arena_.get(), static_cast<size_t>(t.size()));
    for (int i = 0; i < t.size(); ++i) out.Append(t.value(i));
    out.set_id(t.id());
    out.set_arrival_ms(t.arrival_ms());
    return out;
  }

  Entry& Link(uint64_t key, Tuple&& t) {
    if (entries_.size() >= head_.size()) {
      Relink(head_.empty() ? 16 : head_.size() * 2);
    }
    const uint32_t i = static_cast<uint32_t>(entries_.size());
    Entry& e = entries_.emplace_back();
    e.tuple = std::move(t);
    e.key = key;
    Chain(i);
    return e;
  }

  // Appends entry i to the tail of its bucket's chain, so a chain walk
  // visits entries in insertion order.
  void Chain(uint32_t i) {
    Entry& e = entries_[i];
    e.next = kNil;
    const size_t b = e.key & mask_;
    if (tail_[b] == kNil) {
      head_[b] = i;
    } else {
      entries_[tail_[b]].next = i;
    }
    tail_[b] = i;
  }

  void Relink(size_t buckets) {
    head_.assign(buckets, kNil);
    tail_.assign(buckets, kNil);
    mask_ = buckets - 1;
    for (size_t i = 0; i < entries_.size(); ++i) {
      Chain(static_cast<uint32_t>(i));
    }
  }

  void CompactArena() {
    std::unique_ptr<TupleArena> old = std::move(arena_);
    for (Entry& e : entries_) {
      if (e.tuple.arena_backed()) e.tuple = Stored(e.tuple);
    }
    if (arena_ == nullptr) {
      // Nothing live was copied: keep the old chunks for reuse.
      arena_ = std::move(old);
      arena_->Reset();
    }
    dead_payloads_ = 0;
  }

  int64_t wid_ = 0;
  std::vector<Entry> entries_;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> tail_;
  size_t mask_ = 0;
  std::unique_ptr<TupleArena> arena_;
  size_t dead_payloads_ = 0;
};

/// One input's slabs, ascending by wid, with a small pool of purged
/// slabs kept for the next windows.
class JoinSideState {
 public:
  /// Enough for the windows a steady stream has open at once; further
  /// purged slabs are freed.
  static constexpr size_t kMaxSpare = 1;

  const std::vector<std::unique_ptr<JoinSlab>>& slabs() const {
    return slabs_;
  }

  /// The slab of window `wid`, or null.
  JoinSlab* Find(int64_t wid) {
    if (last_ != nullptr && last_->wid() == wid) return last_;
    auto it = LowerBound(wid);
    if (it == slabs_.end() || (*it)->wid() != wid) return nullptr;
    last_ = it->get();
    return last_;
  }

  JoinSlab& FindOrCreate(int64_t wid) {
    if (JoinSlab* s = Find(wid)) return *s;
    std::unique_ptr<JoinSlab> slab;
    if (spare_.empty()) {
      slab = std::make_unique<JoinSlab>(wid);
    } else {
      slab = std::move(spare_.back());
      spare_.pop_back();
      slab->Reset(wid);
    }
    last_ = slab.get();
    slabs_.insert(LowerBound(wid), std::move(slab));
    return *last_;
  }

  /// Calls `fn(slab)` for every slab with wid <= `wid`, ascending, then
  /// drops those slabs (keeping up to kMaxSpare for reuse).
  template <typename Fn>
  void PurgeThrough(int64_t wid, Fn&& fn) {
    size_t n = 0;
    while (n < slabs_.size() && slabs_[n]->wid() <= wid) {
      fn(*slabs_[n]);
      ++n;
    }
    if (n == 0) return;
    for (size_t i = 0; i < n; ++i) {
      if (spare_.size() < kMaxSpare) {
        slabs_[i]->Reset(0);  // frees owned payloads now, keeps chunks
        spare_.push_back(std::move(slabs_[i]));
      }
    }
    slabs_.erase(slabs_.begin(),
                 slabs_.begin() + static_cast<std::ptrdiff_t>(n));
    last_ = nullptr;
  }

  /// Entries across all slabs.
  size_t size() const {
    size_t n = 0;
    for (const std::unique_ptr<JoinSlab>& s : slabs_) n += s->size();
    return n;
  }

  void Clear() {
    slabs_.clear();
    spare_.clear();
    last_ = nullptr;
  }

 private:
  std::vector<std::unique_ptr<JoinSlab>>::iterator LowerBound(int64_t wid) {
    return std::lower_bound(
        slabs_.begin(), slabs_.end(), wid,
        [](const std::unique_ptr<JoinSlab>& s, int64_t w) {
          return s->wid() < w;
        });
  }

  std::vector<std::unique_ptr<JoinSlab>> slabs_;
  std::vector<std::unique_ptr<JoinSlab>> spare_;
  JoinSlab* last_ = nullptr;
};

}  // namespace nstream

#endif  // NSTREAM_OPS_JOIN_STATE_H_
