// Isolated layer replays: an operator driven directly through its
// public ProcessPage, outside any executor, with an ExecContext that
// records what it emits so the next stage can be replayed on exactly
// that output (the methodology of bench/bench_sharded_join.cc).

#ifndef SERVEBENCH_REPLAY_H_
#define SERVEBENCH_REPLAY_H_

#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "stream/page.h"

namespace servebench {

class RecordingContext final : public nstream::ExecContext {
 public:
  explicit RecordingContext(int ports)
      : pages_(static_cast<size_t>(ports)),
        open_(static_cast<size_t>(ports), false) {}

  void EmitTuple(int port, nstream::Tuple t) override {
    Open(port).AddTuple(std::move(t));
  }
  void EmitPunct(int port, nstream::Punctuation p) override {
    Open(port).Add(nstream::StreamElement::OfPunct(std::move(p)));
  }
  void EmitEos(int) override {}
  void EmitPage(int port, nstream::Page&& page) override {
    pages_[static_cast<size_t>(port)].push_back(std::move(page));
    open_[static_cast<size_t>(port)] = false;
  }
  bool PagedEmissionPreferred() const override { return true; }
  void EmitFeedback(int, nstream::FeedbackPunctuation) override {}
  void EmitControl(int, nstream::ControlMessage) override {}
  nstream::TimeMs NowMs() const override { return 0; }
  void ChargeMs(double) override {}

  /// Everything emitted on `port`, in order; the context forgets it.
  std::vector<nstream::Page> Take(int port) {
    open_[static_cast<size_t>(port)] = false;
    return std::exchange(pages_[static_cast<size_t>(port)], {});
  }

 private:
  nstream::Page& Open(int port) {
    const size_t p = static_cast<size_t>(port);
    if (!open_[p]) {
      pages_[p].emplace_back();
      open_[p] = true;
    }
    return pages_[p].back();
  }

  std::vector<std::vector<nstream::Page>> pages_;
  std::vector<bool> open_;
};

/// Tuples in a page, whatever its layout.
inline size_t TupleCount(nstream::Page& page) {
  page.EnsureRowLayout();
  size_t n = 0;
  for (const nstream::StreamElement& e : page.elements()) {
    if (e.is_tuple()) ++n;
  }
  return n;
}

}  // namespace servebench

#endif  // SERVEBENCH_REPLAY_H_
