#include "stream/data_queue.h"

#include <algorithm>
#include <cassert>

#include "punct/compiled_pattern.h"
#include "recovery/snapshot.h"

namespace nstream {

namespace {
// Thread-local task token + process-wide fatality switch for the
// consumer-affinity tripwire (see header).
thread_local uint64_t t_consumer_token = 0;
std::atomic<bool> g_affinity_violations_fatal{true};
}  // namespace

void DataQueue::SetThreadConsumerToken(uint64_t token) {
  t_consumer_token = token;
}

uint64_t DataQueue::ThreadConsumerToken() { return t_consumer_token; }

void DataQueue::SetAffinityViolationsFatal(bool fatal) {
  g_affinity_violations_fatal.store(fatal, std::memory_order_relaxed);
}

void DataQueue::CheckConsumerAffinity() const {
  uint64_t expected = expected_consumer_.load(std::memory_order_relaxed);
  if (expected == 0 || expected == t_consumer_token) return;
  affinity_violations_.fetch_add(1, std::memory_order_relaxed);
  if (g_affinity_violations_fatal.load(std::memory_order_relaxed)) {
    assert(false &&
           "DataQueue consumer-affinity violated: consumer-side call "
           "from a task other than the pinned consumer");
  }
}

DataQueue::DataQueue(DataQueueOptions options)
    : options_(options),
      chain_(static_cast<size_t>(std::max(options.chain_segment_pages, 2))) {
  if (options_.page_size <= 0) options_.page_size = 1;
  open_page_.Reserve(static_cast<size_t>(options_.page_size) + 1);
}

TupleArena* DataQueue::OpenPageArena() {
  // The open page is producer-local, so its arena is safe to hand to
  // the (producer-side) caller.
  return open_page_.arena();
}

void DataQueue::CountFlush(FlushReason reason) {
  switch (reason) {
    case FlushReason::kPageFull:
      Inc(stats_.pages_flushed_full);
      break;
    case FlushReason::kPunctuation:
      Inc(stats_.pages_flushed_punct);
      break;
    case FlushReason::kEndOfStream:
      Inc(stats_.pages_flushed_eos);
      break;
    case FlushReason::kExplicit:
      Inc(stats_.pages_flushed_explicit);
      break;
  }
}

// ---- Producer side ----

bool DataQueue::SealOpenPage(FlushReason reason) {
  if (open_page_.empty()) return false;
  open_page_.set_flush_reason(reason);
  CountFlush(reason);
  chain_.Push(std::move(open_page_));
  open_page_ = Page();
  open_page_.Reserve(static_cast<size_t>(options_.page_size) + 1);
  return true;
}

void DataQueue::FlushOpenPage(FlushReason reason) {
  if (SealOpenPage(reason)) NotifyConsumer();
}

void DataQueue::PushTuple(Tuple t) {
  // Producer-local: no lock, no atomic RMW. The chain hop (and its
  // notify) is paid once per page, not per tuple. AddTuple re-homes a
  // tuple still backed by another page's arena (a filter forwarding
  // upstream-arena tuples element-wise) into this open page's arena —
  // a bump-copy, never a heap allocation.
  open_page_.AddTuple(std::move(t));
  stats_.tuples_pushed.store(++tuples_pushed_, std::memory_order_relaxed);
  if (static_cast<int>(open_page_.size()) >= options_.page_size) {
    FlushOpenPage(FlushReason::kPageFull);
  }
}

void DataQueue::PushPunctuation(Punctuation p) {
  open_page_.Add(StreamElement::OfPunct(std::move(p)));
  Inc(stats_.puncts_pushed);  // rare: one per punctuation, not per tuple
  // Punctuation flushes the page: a slow stream must not strand
  // progress information behind an unfilled page (§5).
  FlushOpenPage(FlushReason::kPunctuation);
}

void DataQueue::PushEos() {
  open_page_.Add(StreamElement::Eos());
  SealOpenPage(FlushReason::kEndOfStream);
  // Set after the final page is published: a consumer that observes
  // eos_pushed_ (acquire) therefore also observes that page. The one
  // notify comes after both, so the woken consumer sees the queue
  // drainable to Drained().
  eos_pushed_.store(true, std::memory_order_release);
  NotifyConsumer();
}

void DataQueue::PushPage(Page&& page) {
  if (page.empty()) return;
#ifndef NDEBUG
  if (page.is_columnar()) {
    // Columnar pages are tuples-only by construction; the block-level
    // check covers the arena side: block arrays in the page's own
    // arena, no owning values behind the wholesale free.
    assert(page.columnar()->ArenaInvariantHolds(page.arena_if_created()));
  } else {
    for (const StreamElement& e : page.elements()) {
      assert(e.is_tuple());
      // Arena ownership invariant: every arena-backed tuple in the
      // page references the page's own arena (and holds nothing the
      // wholesale arena free would leak). A violation means some
      // operator moved a tuple between pages without Rehome/Promote.
      assert(page.ElementArenaInvariantHolds(e));
    }
  }
#endif
  // Preserve order: anything staged tuple-at-a-time goes first (the
  // empty check stays inline — page-granular producers rarely have an
  // open per-tuple page).
  if (!open_page_.empty()) SealOpenPage(FlushReason::kExplicit);
  tuples_pushed_ += page.size();
  stats_.tuples_pushed.store(tuples_pushed_, std::memory_order_relaxed);
  stats_.pages_pushed_whole.store(++pages_pushed_whole_,
                                  std::memory_order_relaxed);
  page.set_flush_reason(FlushReason::kExplicit);
  chain_.Push(std::move(page));
  NotifyConsumer();
}

void DataQueue::Flush() { FlushOpenPage(FlushReason::kExplicit); }

// ---- Consumer side ----

std::optional<Page> DataQueue::TryPopPage() {
  CheckConsumerAffinity();
  std::optional<Page> out;
  // Pages parked by purge/promote surgery are older than anything in
  // the chain and must leave first. side_count_ keeps the no-surgery
  // fast path lock-free.
  if (side_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!side_pages_.empty()) {
      out = std::move(side_pages_.front());
      side_pages_.pop_front();
      side_count_.store(side_pages_.size(), std::memory_order_release);
    }
  }
  if (!out.has_value()) out = chain_.TryPop();
  if (out.has_value()) {
    stats_.pages_popped.store(++pages_popped_, std::memory_order_relaxed);
  }
  return out;
}

// ---- Feedback-exploit surgery ----

void DataQueue::DrainChainToSideLocked() {
  while (std::optional<Page> p = chain_.TryPop()) {
    side_pages_.push_back(std::move(*p));
  }
}

int DataQueue::PurgeMatching(const PunctPattern& pattern) {
  CheckConsumerAffinity();
  // Compile once (shared across relay hops exploiting the same
  // pattern), then a single in-place erase-remove pass per page — no
  // per-element re-interpretation, no rebuilt element vectors.
  std::shared_ptr<const CompiledPattern> compiled_ptr =
      CompiledPatternCache::Global().Get(pattern);
  const CompiledPattern& compiled = *compiled_ptr;
  int removed = 0;
  auto purge_page = [&](Page* page) {
    if (page->is_columnar()) {
      // Selection-vector edit, hoisted type dispatch — no compaction.
      removed += compiled.FilterColumnarPurge(page->columnar());
      return;
    }
    std::vector<StreamElement>& elems = page->mutable_elements();
    auto it = std::remove_if(
        elems.begin(), elems.end(), [&](const StreamElement& e) {
          return e.is_tuple() && compiled.Matches(e.tuple());
        });
    removed += static_cast<int>(elems.end() - it);
    elems.erase(it, elems.end());
  };
  // Consumer-side slow path: pull every published page out of the
  // chain into the staging deque (order preserved; pops serve the
  // deque first) and purge there. The producer's open page stays
  // untouched — see the header contract — unless the queue is
  // single-threaded, where touching it is safe.
  std::lock_guard<std::mutex> lock(mu_);
  DrainChainToSideLocked();
  for (Page& p : side_pages_) purge_page(&p);
  // Drop pages emptied by the purge so consumers don't spin on them.
  side_pages_.erase(
      std::remove_if(side_pages_.begin(), side_pages_.end(),
                     [](const Page& p) { return p.empty(); }),
      side_pages_.end());
  if (options_.assume_single_thread) purge_page(&open_page_);
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return removed;
}

int DataQueue::PromoteMatching(const PunctPattern& pattern) {
  CheckConsumerAffinity();
  std::shared_ptr<const CompiledPattern> compiled_ptr =
      CompiledPatternCache::Global().Get(pattern);
  const CompiledPattern& compiled = *compiled_ptr;
  int moved = 0;
  // A punctuation flushes its page, so it can only be a page's last
  // element; partitioning within a page therefore never moves a tuple
  // across a punctuation. std::stable_partition keeps relative order
  // on both sides and works in place.
  auto promote_page = [&](Page* page) {
    if (page->is_columnar()) {
      // Stable-partition the selection vector; rows never move.
      ColumnarBlock* b = page->columnar();
      moved += b->PartitionSelection(
          [&](uint32_t r) { return compiled.MatchesRow(*b, r); });
      return;
    }
    std::vector<StreamElement>& elems = page->mutable_elements();
    auto mid = std::stable_partition(
        elems.begin(), elems.end(), [&](const StreamElement& e) {
          return e.is_tuple() && compiled.Matches(e.tuple());
        });
    // Count tuples that actually jumped ahead of a non-matching one.
    if (mid != elems.begin() && mid != elems.end()) {
      moved += static_cast<int>(mid - elems.begin());
    }
  };
  std::lock_guard<std::mutex> lock(mu_);
  DrainChainToSideLocked();
  for (Page& p : side_pages_) promote_page(&p);
  if (options_.assume_single_thread) promote_page(&open_page_);
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return moved;
}

// ---- Checkpointing ----

Status DataQueue::SnapshotContents(SnapshotWriter* w) {
  std::lock_guard<std::mutex> lock(mu_);
  // Move everything published into the staging deque so it can be
  // walked under mu_; later pops serve the deque first, so nothing is
  // lost or reordered.
  DrainChainToSideLocked();
  side_count_.store(side_pages_.size(), std::memory_order_release);
  uint32_t count = static_cast<uint32_t>(side_pages_.size());
  if (!open_page_.empty()) ++count;
  w->WriteU32(count);
  for (Page& p : side_pages_) WritePageElements(w, p);
  // The open page is producer-local, but the quiesced contract (both
  // endpoints parked at the barrier) makes reading it race-free. At
  // full alignment it is empty anyway — the barrier punctuation
  // flushed it — so this only fires for edges checkpointed by
  // single-threaded harness drivers mid-page.
  if (!open_page_.empty()) WritePageElements(w, open_page_);
  return Status::OK();
}

Status DataQueue::RestoreContents(SnapshotReader* r) {
  uint32_t count = 0;
  NSTREAM_RETURN_NOT_OK(r->ReadU32(&count));
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    Page p;
    NSTREAM_RETURN_NOT_OK(ReadPageInto(r, &p));
    if (p.empty()) continue;
    p.set_flush_reason(FlushReason::kExplicit);
    side_pages_.push_back(std::move(p));
  }
  side_count_.store(side_pages_.size(), std::memory_order_release);
  return Status::OK();
}

// ---- Introspection ----

bool DataQueue::Drained() const {
  // eos_pushed_ is set after the final flush, so observing it means the
  // open page is empty and everything is in the chain or the side
  // deque.
  return eos_pushed_.load(std::memory_order_acquire) &&
         side_count_.load(std::memory_order_acquire) == 0 &&
         chain_.ApproxEmpty();
}

bool DataQueue::HasPage() const {
  return side_count_.load(std::memory_order_acquire) > 0 ||
         !chain_.ApproxEmpty();
}

DataQueueStats DataQueue::stats() const {
  DataQueueStats out;
  out.tuples_pushed = stats_.tuples_pushed.load(std::memory_order_relaxed);
  out.puncts_pushed = stats_.puncts_pushed.load(std::memory_order_relaxed);
  out.pages_flushed_full =
      stats_.pages_flushed_full.load(std::memory_order_relaxed);
  out.pages_flushed_punct =
      stats_.pages_flushed_punct.load(std::memory_order_relaxed);
  out.pages_flushed_eos =
      stats_.pages_flushed_eos.load(std::memory_order_relaxed);
  out.pages_flushed_explicit =
      stats_.pages_flushed_explicit.load(std::memory_order_relaxed);
  out.pages_pushed_whole =
      stats_.pages_pushed_whole.load(std::memory_order_relaxed);
  out.pages_popped = stats_.pages_popped.load(std::memory_order_relaxed);
  return out;
}

void DataQueue::SetConsumerNotifier(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  notifier_storage_.push_back(
      std::make_unique<std::function<void()>>(std::move(fn)));
  consumer_notifier_.store(notifier_storage_.back().get(),
                           std::memory_order_release);
}

void DataQueue::NotifyConsumer() {
  const std::function<void()>* fn =
      consumer_notifier_.load(std::memory_order_acquire);
  if (fn != nullptr && *fn) (*fn)();
}

}  // namespace nstream
