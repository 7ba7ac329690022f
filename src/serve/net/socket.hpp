// Thin POSIX socket helpers for the serving tier: an RAII fd, loopback
// listen/connect, and blocking framed I/O built on the protocol codec.
//
// Everything here is synchronous and EINTR-safe; the event-driven side
// (nonblocking reads and writes, poll) lives in net_server.cpp. The client, the tests,
// and the daemon's probe mode all talk through these helpers so framing
// bugs have exactly one home.
#pragma once

#include <chrono>
#include <cstdint>

#include "serve/net/protocol.hpp"

namespace dcn::serve::net {

/// Move-only owner of a file descriptor; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close_fd(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close_fd();
  /// Give up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

struct ListenResult {
  Socket socket;
  std::uint16_t port = 0;  // the bound port (resolved when asked for port 0)
};

/// Bind + listen on 127.0.0.1:`port` (0 picks an ephemeral port; the result
/// reports which). Throws std::runtime_error on failure.
ListenResult listen_loopback(std::uint16_t port, int backlog = 64);

/// Connect to 127.0.0.1:`port`, retrying until `timeout` elapses (covers the
/// listen/accept race when a daemon is still starting). Throws on timeout.
Socket connect_loopback(std::uint16_t port,
                        std::chrono::milliseconds timeout =
                            std::chrono::milliseconds(5000));

/// Toggle O_NONBLOCK. Throws on fcntl failure.
void set_nonblocking(int fd, bool on);

/// Write the whole buffer, looping over partial writes/EINTR and polling out
/// EAGAIN. Returns false once the peer is gone (EPIPE/ECONNRESET) — callers
/// treat that as a disconnected client, not an error. Uses MSG_NOSIGNAL so a
/// dead peer cannot SIGPIPE the process.
bool write_all(int fd, const void* data, std::size_t size);

/// Read exactly `size` bytes, looping over partial reads/EINTR and polling
/// EAGAIN. Returns false on clean EOF before the first byte; throws
/// std::runtime_error if the stream ends mid-buffer (a truncated frame).
bool read_exact(int fd, void* data, std::size_t size);

/// Blocking frame send/receive for clients and probes. recv_frame returns
/// false on clean EOF between frames and throws ProtocolError on a
/// zero-length or over-cap length prefix.
bool send_frame(int fd, const Bytes& frame);
bool recv_frame(int fd, Frame& out,
                std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace dcn::serve::net
