// FrameConduit: the channel between the transport edge and one
// IngestSource. Two producer→engine shapes share it:
//
//   * byte-stream chunks (single connection, FdListener / in-memory
//     client): bytes flow as filled pool buffers (ConduitChunk) and
//     the source assembles frames;
//   * whole tagged frames (multi-producer fan-in, TcpAcceptor): the
//     acceptor assembles frames per connection and enqueues MuxFrames,
//     so N producers interleave at frame granularity, never mid-frame.
//
// Feedback frames flow engine → producer as encoded byte strings with
// a routing target (one producer, or broadcast). Thread-safe on both
// sides: the producer may be a client thread or a transport pump, the
// consumer is whichever worker runs the IngestSource task.
//
// The conduit owns the admission pool (frame_pool.h). OfferBytes
// copies producer bytes into pooled buffers and accepts only what the
// pool can hold — the in-memory equivalent of TCP backpressure. The
// FdListener bypasses the copy entirely with the acquire/commit API:
// read(2) lands socket bytes directly in a pool buffer.
//
// The data notifier makes an idle IngestSource schedulable again: the
// pooled scheduler wires it to Wake(task) (via SetWakeNotifier), so a
// byte arriving on a drained conduit re-enqueues the parked source.

#ifndef NSTREAM_INGEST_FRAME_CONDUIT_H_
#define NSTREAM_INGEST_FRAME_CONDUIT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "ingest/frame_pool.h"

namespace nstream {

/// A filled admission buffer in flight. `data` stays owned by the
/// pool; the consumer must Recycle() the chunk when done with it.
struct ConduitChunk {
  char* data = nullptr;
  size_t len = 0;
};

/// One whole wire frame from one producer — the multi-producer fan-in
/// unit. The acceptor assembles frames per connection (so producers'
/// bytes never interleave mid-frame) and tags each with the
/// connection's producer id.
struct MuxFrame {
  uint64_t producer = 0;
  std::string bytes;
};

/// An engine → producer feedback frame with routing: target 0 means
/// broadcast to every producer, otherwise exactly one.
struct RoutedFeedback {
  uint64_t target = 0;
  std::string bytes;
};

struct FrameConduitOptions {
  size_t buffer_bytes = 4096;
  size_t num_buffers = 256;
  /// Bound on queued engine → producer feedback frames. With no
  /// drainer (no listener attached, or the peer died) the queue must
  /// not grow for the life of the query; past the cap the OLDEST
  /// frame is dropped — feedback is advisory and newer intent
  /// supersedes older.
  size_t max_feedback_frames = 256;
};

class FrameConduit {
 public:
  using Options = FrameConduitOptions;

  explicit FrameConduit(Options opts = {})
      : pool_(opts.buffer_bytes, opts.num_buffers),
        max_feedback_(opts.max_feedback_frames > 0
                          ? opts.max_feedback_frames
                          : 1) {}

  FrameConduit(const FrameConduit&) = delete;
  FrameConduit& operator=(const FrameConduit&) = delete;

  // ---- Producer side (client thread / FdListener) ----

  /// Copy up to `n` bytes into pooled buffers and publish them.
  /// Returns the number accepted — less than `n` exactly when the
  /// pool ran dry (admission backpressure; retry after the consumer
  /// recycles).
  size_t OfferBytes(const char* p, size_t n);

  /// OfferBytes until everything is accepted, or give up the moment
  /// the pool is dry. True = all bytes published.
  bool WriteAll(std::string_view bytes) {
    return OfferBytes(bytes.data(), bytes.size()) == bytes.size();
  }

  /// Zero-copy fill: acquire a raw pool buffer, read into it, then
  /// Commit (publishes as a chunk) or Release (abandon). Null when
  /// the pool is dry.
  char* TryAcquireBuffer() { return pool_.TryAcquire(); }
  void CommitBuffer(char* buf, size_t len);
  void ReleaseBuffer(char* buf) { pool_.Release(buf); }

  /// Producer is done; once the queued chunks drain the stream ends.
  void CloseWrite();

  /// Next engine → producer feedback frame (encoded bytes), if any.
  /// Single-connection transports (FdListener, ConduitClient) use
  /// this; it pops regardless of routing target.
  std::optional<std::string> TryPopFeedbackFrame();

  /// Routed flavor for the multi-connection acceptor: the entry keeps
  /// its target so the acceptor can deliver to one connection or all.
  std::optional<RoutedFeedback> TryPopRoutedFeedback();

  // ---- Multi-producer fan-in (TcpAcceptor → IngestSource) ----

  /// Enqueue one whole wire frame from `producer`. False when the mux
  /// queue is at its byte budget (= pool bytes): the acceptor keeps
  /// the frame pending and pauses reads on that connection — the
  /// per-connection equivalent of the dry-pool backpressure.
  bool OfferMuxFrame(uint64_t producer, std::string_view frame_bytes);

  /// Budget-exempt enqueue for small control frames the source MUST
  /// see (e.g. the acceptor's quarantine notice) and for trusted local
  /// trace replay. Never fails.
  void ForceMuxFrame(uint64_t producer, std::string frame_bytes);

  std::optional<MuxFrame> TryPopMuxFrame();
  bool HasMuxFrames() const;
  size_t mux_queued_bytes() const;
  size_t mux_budget_bytes() const { return mux_budget_; }

  // ---- Consumer side (IngestSource) ----

  std::optional<ConduitChunk> TryPopChunk();
  void Recycle(const ConduitChunk& c) { pool_.Release(c.data); }
  bool HasChunks() const;
  bool write_closed() const;

  /// Fired (outside the lock) when a chunk is published or the write
  /// side closes — the IngestSource wake hook.
  void SetDataNotifier(std::function<void()> fn);

  /// Engine side: send an encoded feedback frame back to the producer.
  /// Bounded (max_feedback_frames): when full, drops the oldest.
  void PushFeedbackFrame(std::string frame_bytes) {
    PushFeedbackFrameTo(0, std::move(frame_bytes));
  }
  /// Routed flavor: target one producer (`producer` != 0) or all (0).
  void PushFeedbackFrameTo(uint64_t producer, std::string frame_bytes);
  /// Fired (outside the lock) when a feedback frame is queued —
  /// routed feedback, hello-acks and engine-side errors alike. The
  /// TcpAcceptor registers it to wake its serving thread; a copy may
  /// still run after it is replaced, so it must own what it touches.
  void SetFeedbackNotifier(std::function<void()> fn);
  /// Feedback frames dropped to honor max_feedback_frames.
  uint64_t feedback_dropped() const;

  size_t buffer_bytes() const { return pool_.buffer_bytes(); }
  const FrameBufferPool& pool() const { return pool_; }

 private:
  FrameBufferPool pool_;
  const size_t max_feedback_;
  const size_t mux_budget_ =
      pool_.buffer_bytes() * pool_.capacity() > 0
          ? pool_.buffer_bytes() * pool_.capacity()
          : 1;
  mutable std::mutex mu_;
  std::deque<ConduitChunk> chunks_;
  std::deque<MuxFrame> mux_;
  size_t mux_bytes_ = 0;
  std::deque<RoutedFeedback> feedback_;
  uint64_t feedback_dropped_ = 0;
  bool write_closed_ = false;
  std::function<void()> data_notifier_;
  std::function<void()> feedback_notifier_;
};

}  // namespace nstream

#endif  // NSTREAM_INGEST_FRAME_CONDUIT_H_
