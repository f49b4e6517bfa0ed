// Producer side of the wire protocol as the load generator speaks it:
// one non-blocking loopback socket per producer connection, driven by
// a single generator thread. Frames are encoded on the fly with the
// engine's public wire encoders.

#ifndef SERVEBENCH_PRODUCER_H_
#define SERVEBENCH_PRODUCER_H_

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "ingest/tcp_acceptor.h"
#include "ingest/wire_format.h"
#include "trace.h"

namespace servebench {

class ProducerConn {
 public:
  ProducerConn() = default;
  ~ProducerConn() { Close(); }
  ProducerConn(const ProducerConn&) = delete;
  ProducerConn& operator=(const ProducerConn&) = delete;

  /// Blocking connect, then switch the socket to non-blocking.
  bool Connect(int port) {
    nstream::Result<int> fd = nstream::TcpConnectLoopback(port);
    if (!fd.ok()) return false;
    fd_ = fd.value();
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  int fd() const { return fd_; }
  bool has_pending() const { return off_ < out_.size(); }
  std::string* out() {
    if (off_ == out_.size()) {
      out_.clear();
      off_ = 0;
    }
    return &out_;
  }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Send what the kernel takes without blocking. Returns false if the
  /// peer is gone; `*blocked` is set when bytes remain unsent.
  bool Flush(bool* blocked) {
    *blocked = false;
    while (off_ < out_.size()) {
      ssize_t n;
      {
        trace::Span span("ingest.send", trace::Layer::kIngest);
        n = ::send(fd_, out_.data() + off_, out_.size() - off_,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
      }
      if (n > 0) {
        off_ += static_cast<size_t>(n);
        bytes_sent_ += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        *blocked = true;
        return true;
      }
      return false;
    }
    return true;
  }

  /// Read whatever the engine sent and hand each whole frame to `fn`.
  /// Returns false once the peer has closed or the stream is corrupt.
  bool ReadFrames(const std::function<void(const nstream::FrameView&)>& fn) {
    char buf[4096];
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      const bool open = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      size_t pos = 0;
      for (;;) {
        nstream::FrameView f;
        size_t consumed = 0;
        std::string_view rest(in_.data() + pos, in_.size() - pos);
        if (!nstream::ScanFrame(rest, &f, &consumed).ok()) return false;
        if (consumed == 0) break;
        fn(f);
        pos += consumed;
      }
      in_.erase(0, pos);
      return open;
    }
  }

  void ShutdownWrite() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string out_;
  size_t off_ = 0;
  std::string in_;
  uint64_t bytes_sent_ = 0;
};

/// Send every connection's hello and wait until each has its
/// kHelloAck (the engine has admitted the session). False on timeout
/// or a closed connection.
inline bool HelloHandshake(std::vector<ProducerConn>* conns, uint32_t arity,
                           int64_t timeout_ns) {
  for (size_t i = 0; i < conns->size(); ++i) {
    nstream::AppendHelloFrame((*conns)[i].out(), arity, i + 1, 0);
  }
  std::vector<bool> acked(conns->size(), false);
  size_t acks = 0;
  const int64_t deadline = NowNs() + timeout_ns;
  while (acks < conns->size()) {
    if (NowNs() > deadline) return false;
    std::vector<pollfd> fds;
    for (ProducerConn& c : *conns) {
      bool blocked = false;
      if (!c.Flush(&blocked)) return false;
      fds.push_back({c.fd(),
                     static_cast<short>(POLLIN | (blocked ? POLLOUT : 0)), 0});
    }
    ::poll(fds.data(), fds.size(), 5);
    for (size_t i = 0; i < conns->size(); ++i) {
      bool ok = (*conns)[i].ReadFrames([&](const nstream::FrameView& f) {
        if (f.type == nstream::FrameType::kHelloAck && !acked[i]) {
          acked[i] = true;
          ++acks;
        }
      });
      if (!ok) return false;
    }
  }
  return true;
}

}  // namespace servebench

#endif  // SERVEBENCH_PRODUCER_H_
