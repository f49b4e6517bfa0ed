// ControlChannel: the upstream (against-the-data) half of an
// inter-operator connection (Fig. 3). Carries out-of-band control
// messages — feedback punctuation and shutdown — which are
// high-priority: a consumer drains its control channel before touching
// pending data pages (§5, "Inter-Operator Communication").

#ifndef NSTREAM_STREAM_CONTROL_CHANNEL_H_
#define NSTREAM_STREAM_CONTROL_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "punct/feedback.h"

namespace nstream {

enum class ControlType : uint8_t {
  kFeedback = 0,  // feedback punctuation (the paper's new message type)
  kShutdown,      // stop producing; tear down
  kRequestResult, // poll-based on-demand result production (Example 4)
};

const char* ControlTypeName(ControlType t);

/// One out-of-band message flowing upstream.
struct ControlMessage {
  ControlType type = ControlType::kFeedback;
  FeedbackPunctuation feedback;  // valid when type == kFeedback

  static ControlMessage Feedback(FeedbackPunctuation fb) {
    ControlMessage m;
    m.type = ControlType::kFeedback;
    m.feedback = std::move(fb);
    return m;
  }
  static ControlMessage Shutdown() {
    ControlMessage m;
    m.type = ControlType::kShutdown;
    return m;
  }
  static ControlMessage RequestResult() {
    ControlMessage m;
    m.type = ControlType::kRequestResult;
    return m;
  }

  std::string ToString() const;
};

/// Counters for tests/benches.
struct ControlChannelStats {
  uint64_t messages_pushed = 0;
  uint64_t messages_popped = 0;
};

class ControlChannel {
 public:
  ControlChannel() = default;

  /// Enqueue a message (called by the downstream operator).
  void Push(ControlMessage msg);

  /// Non-blocking pop (called by the upstream operator, before data).
  std::optional<ControlMessage> TryPop();

  bool HasMessage() const;

  /// Called whenever a message arrives; the pooled scheduler uses it
  /// to wake the producer-side operator task.
  void SetNotifier(std::function<void()> fn);

  ControlChannelStats stats() const;

 private:
  mutable std::mutex mu_;
  std::deque<ControlMessage> messages_;
  ControlChannelStats stats_;
  std::function<void()> notifier_;
};

}  // namespace nstream

#endif  // NSTREAM_STREAM_CONTROL_CHANNEL_H_
