// NetServer — the socket front end over ShardRouter.
//
// Threading model (DESIGN.md "Network serving tier"): one IO thread does
// every piece of socket work. Each turn it rebuilds a pollfd array — the
// listener, the wake pipe, then connection i at index 2 + i — waits in
// poll(), and then:
//
//   reads     accepts new connections; reads readable ones into their frame
//             buffers and turns each complete frame into a response slot at
//             the back of that connection's FIFO. A predict goes to the
//             router, whose shard calls back once the answer is ready by
//             writing one byte to the wake pipe.
//   writes    renders the ready slots at the head of each FIFO into the
//             connection's outbound buffer and sends it with a nonblocking
//             send(); bytes left over after EAGAIN wait for POLLOUT.
//
// Only the head slot renders, so responses leave in request order per
// connection, and a Health answer reports the queue depth at the moment it
// is sent. A connection that holds kMaxPendingSlots unanswered requests or
// kMaxOutboundBytes unsent bytes is not read until it drains, so TCP pushes
// back on its sender: a client that never reads stalls only itself. The
// shards' DcnServer dispatchers run the inference on runtime::pool().
//
// Shutdown drains: stop() refuses new predicts (typed ShuttingDown errors),
// closes the listener, drains every shard (completing admitted futures),
// then the IO thread stops reading and flushes every admitted answer. It
// exits once all are sent, or after kDrainDeadline, closing whatever is
// left. Requests admitted before stop() get their answer unless their
// client stops reading for the whole deadline.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/net/router.hpp"
#include "serve/net/socket.hpp"

namespace dcn::serve::net {

struct NetServerConfig {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Per-frame size cap; a length prefix above it is a fatal framing error.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class NetServer {
 public:
  /// Unanswered requests one connection may hold before it stops being
  /// read. Above the deepest pipeline any client here sends on one
  /// connection (8), with room for a replay that keeps a full micro-batch
  /// per shard in flight.
  static constexpr std::size_t kMaxPendingSlots = 64;
  /// Rendered but unsent bytes one connection may hold before it stops
  /// being read and rendering waits. Several Metrics expositions or ~80
  /// MNIST-sized verbose answers; beyond this the kernel's own socket
  /// buffer is already full and more bytes would only wait in ours.
  static constexpr std::size_t kMaxOutboundBytes = 256 * 1024;
  /// How long stop() waits, once the shards are drained, for clients to
  /// read their answers before closing their connections.
  static constexpr std::chrono::milliseconds kDrainDeadline{2000};

  /// Binds, listens, and starts the IO thread. The router must outlive the
  /// server. Throws std::runtime_error on bind failure.
  NetServer(ShardRouter& router, NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (resolves config.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// True between construction and stop().
  [[nodiscard]] bool serving() const {
    return !stopped_.load(std::memory_order_acquire);
  }

  /// Drain and stop (see header comment). Idempotent; also called by the
  /// destructor.
  void stop();

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t responses_sent = 0;
    std::uint64_t protocol_errors = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Slot;
  struct Connection;

  void io_loop();
  void accept_ready();
  bool read_ready(Connection& conn);
  void dispatch_frames(Connection& conn);
  void handle_frame(Connection& conn, Frame frame);
  Bytes render(Slot& slot);
  bool flush(Connection& conn);
  void publish_gauges();
  void wake();
  HealthInfo health_now() const;

  ShardRouter* router_;
  NetServerConfig config_;
  Socket listen_socket_;
  std::uint16_t port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::atomic<bool> draining_{false};  // refuse predicts, close the listener
  std::atomic<bool> flushing_{false};  // shards drained: stop reading, flush
  std::atomic<bool> stopped_{false};
  std::mutex stop_mutex_;  // serializes stop() (destructor vs. explicit call)
  bool stop_done_ = false;

  // Counters (NetServer::Stats) and gauges (dcn_net_*), written by the IO
  // thread and read by stats() and the registry source; relaxed atomics.
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> open_connections_{0};
  std::atomic<std::uint64_t> pending_slots_{0};
  std::atomic<std::uint64_t> outbound_bytes_{0};
  std::atomic<std::uint64_t> paused_connections_{0};
  std::size_t metrics_source_id_ = 0;  // handle in obs::registry()

  // Owned and touched by the IO thread only.
  std::vector<std::unique_ptr<Connection>> connections_;

  std::thread io_thread_;
};

}  // namespace dcn::serve::net
