#include "serve/net/net_server.hpp"

#include <cerrno>
#include <cstdio>
#include <deque>
#include <optional>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace dcn::serve::net {

// ---- Internal structures ---------------------------------------------------

/// One response owed to a client. A predict slot waits on its shard future;
/// every other kind is ready at once but, like a predict, is rendered only
/// when it reaches the head of its connection's FIFO.
struct NetServer::Slot {
  enum class Kind { kPredict, kMetrics, kHealth, kTrace, kTraceQuery, kError };
  Kind kind = Kind::kError;
  bool verbose = false;
  std::uint32_t shard = 0;
  std::future<ServeResult> future;  // kPredict only
  ErrorCode code = ErrorCode::kInternal;
  std::uint32_t retry_after_ms = 0;
  std::string message;
  // The request's wire trace context (invalid when the client sent none).
  // Echoed on the response — including error frames, so an Overloaded shed
  // stays attributable to the trace that suffered it.
  obs::TraceContext trace;
  std::uint64_t query_hi = 0;  // kTraceQuery only
  std::uint64_t query_lo = 0;

  [[nodiscard]] bool ready() const {
    return kind != Kind::kPredict ||
           future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
  }
};

/// One accepted connection; only the IO thread touches it.
struct NetServer::Connection {
  Socket socket;
  Bytes read_buffer;
  std::deque<Slot> slots;  // unanswered requests, oldest first
  Bytes outbound;          // rendered responses; the first `sent` bytes left
  std::size_t sent = 0;
  std::size_t frames_out = 0;  // responses in `outbound`
  // No more reads: EOF, a fatal framing error, or the drain. The connection
  // closes once its slots are answered and its bytes sent.
  bool read_closed = false;
  // Complete frames wait in read_buffer because dispatch hit paused().
  bool backlog = false;

  [[nodiscard]] std::size_t unsent() const { return outbound.size() - sent; }
  [[nodiscard]] bool paused() const {
    return slots.size() >= kMaxPendingSlots || unsent() >= kMaxOutboundBytes;
  }
  // Read only once the buffered frames are dispatched, so read_buffer stays
  // within one read plus one partial frame.
  [[nodiscard]] bool wants_read() const {
    return !read_closed && !backlog && !paused();
  }
  // Work left that no poll() event will announce: frames to dispatch, or
  // ready answers that the last round's outbound cap left unrendered.
  [[nodiscard]] bool runnable() const {
    return (backlog && !paused()) ||
           (unsent() == 0 && !slots.empty() && slots.front().ready());
  }
  [[nodiscard]] bool done() const {
    return read_closed && slots.empty() && unsent() == 0;
  }
};

namespace {

void append_json_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

/// The kTraceQueryResponse body: a Chrome-trace-compatible object carrying
/// the filtered span tree plus every retained DecisionRecord of the queried
/// id. Loadable directly in Perfetto (which ignores the extra key).
std::string trace_query_json(std::uint64_t hi, std::uint64_t lo,
                             const std::vector<DecisionRecord>& records) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":";
  out += obs::trace_events_json(hi, lo);
  out += ",\"decisionRecords\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const DecisionRecord& r = records[i];
    if (i != 0) out += ',';
    out += "{\"trace_id\":\"";
    out += obs::trace_id_hex(r.trace_hi, r.trace_lo);
    out += "\",\"shard\":" + std::to_string(r.shard);
    out += ",\"label\":" + std::to_string(r.result.label);
    out += ",\"dnn_label\":" + std::to_string(r.result.dnn_label);
    out += ",\"flagged_adversarial\":";
    out += r.result.flagged_adversarial ? "true" : "false";
    out += ",\"tier0_resolved\":";
    out += r.result.tier0_resolved ? "true" : "false";
    out += ",\"tier0_policy\":" + std::to_string(r.result.tier0_policy);
    out += ",\"corrector_samples\":" +
           std::to_string(r.result.corrector_samples);
    out += ",\"chunks_used\":" + std::to_string(r.result.chunks_used);
    out += ",\"stop_rule\":\"";
    out += core::stop_rule_name(
        static_cast<core::StopRule>(r.result.stop_rule));
    out += "\",\"rng_segment\":" + std::to_string(r.result.rng_segment);
    out += ",\"detector_margin\":";
    append_json_double(out, r.result.detector_margin);
    out += ",\"queue_us\":";
    append_json_double(out, r.result.queue_us);
    out += ",\"compute_us\":";
    append_json_double(out, r.result.compute_us);
    out += ",\"total_us\":";
    append_json_double(out, r.result.total_us);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace

// ---- Lifecycle -------------------------------------------------------------

NetServer::NetServer(ShardRouter& router, NetServerConfig config)
    : router_(&router), config_(config) {
  ListenResult listen = listen_loopback(config_.port);
  listen_socket_ = std::move(listen.socket);
  port_ = listen.port;
  set_nonblocking(listen_socket_.fd(), true);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    throw std::runtime_error("NetServer: pipe failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_, true);
  set_nonblocking(wake_write_fd_, true);

  metrics_source_id_ = obs::registry().add_source(
      [this](std::vector<obs::Metric>& out) {
        struct Family {
          const char* name;
          const char* help;
          obs::MetricType type;
          const std::atomic<std::uint64_t>* value;
        };
        const Family families[] = {
            {"dcn_net_connections_accepted_total", "Connections accepted",
             obs::MetricType::kCounter, &connections_accepted_},
            {"dcn_net_frames_received_total", "Request frames received",
             obs::MetricType::kCounter, &frames_received_},
            {"dcn_net_responses_sent_total",
             "Response frames fully written to a socket",
             obs::MetricType::kCounter, &responses_sent_},
            {"dcn_net_protocol_errors_total",
             "Malformed frames, payloads or message types",
             obs::MetricType::kCounter, &protocol_errors_},
            {"dcn_net_connections_open", "Open client connections",
             obs::MetricType::kGauge, &open_connections_},
            {"dcn_net_pending_responses",
             "Requests read but not yet answered, over all connections",
             obs::MetricType::kGauge, &pending_slots_},
            {"dcn_net_outbound_bytes",
             "Rendered response bytes the kernel has not yet accepted",
             obs::MetricType::kGauge, &outbound_bytes_},
            {"dcn_net_reads_paused",
             "Connections not being read until their answers drain",
             obs::MetricType::kGauge, &paused_connections_},
        };
        for (const Family& f : families) {
          out.push_back({f.name, f.help, f.type, "", "",
                         static_cast<double>(
                             f.value->load(std::memory_order_relaxed)),
                         "", 0.0});
        }
      });

  io_thread_ = std::thread([this] { io_loop(); });
}

NetServer::~NetServer() {
  stop();
  // Sources run under the registry lock, so after this no scrape can reach
  // the dying server.
  obs::registry().remove_source(metrics_source_id_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

void NetServer::wake() {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  (void)!::write(wake_write_fd_, &byte, 1);
}

void NetServer::stop() {
  // stop() may race with itself (destructor vs. explicit call); the first
  // caller does the work and later callers wait on the same mutex.
  std::lock_guard<std::mutex> guard(stop_mutex_);
  if (stop_done_) return;

  // 1. Refuse new predicts; the IO thread closes the listener on wakeup.
  draining_.store(true, std::memory_order_release);
  wake();
  // 2. Drain the shards: every admitted future completes here, and its
  //    completion callback is done with the wake pipe before this returns.
  router_->shutdown();
  // 3. Stop reading; the IO thread sends what is owed and exits, after
  //    kDrainDeadline at the latest.
  flushing_.store(true, std::memory_order_release);
  wake();
  // stop_mutex_ is the shutdown once-guard, taken by no hot-path caller;
  // joining here is the drain contract, bounded by kDrainDeadline.
  // dcn-lint: allow(mutex-hygiene)
  io_thread_.join();
  stopped_.store(true, std::memory_order_release);
  stop_done_ = true;
}

NetServer::Stats NetServer::stats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

HealthInfo NetServer::health_now() const {
  HealthInfo info;
  info.version = kProtocolVersion;
  info.state = draining_.load(std::memory_order_acquire) ? 2 : 1;
  info.shards = static_cast<std::uint16_t>(router_->shard_count());
  info.queue_depth = static_cast<std::uint32_t>(router_->queue_depth_total());
  return info;
}

// ---- IO thread -------------------------------------------------------------

void NetServer::io_loop() {
  using Clock = std::chrono::steady_clock;
  runtime::set_thread_name("dcn-net-io");
  std::vector<pollfd> pfds;
  bool busy = false;  // some connection has work it can do at once
  std::optional<Clock::time_point> drain_deadline;
  for (;;) {
    if (draining_.load(std::memory_order_acquire) && listen_socket_.valid()) {
      listen_socket_.close_fd();
    }
    int timeout_ms = busy ? 0 : -1;
    if (flushing_.load(std::memory_order_acquire)) {
      if (!drain_deadline) {
        drain_deadline = Clock::now() + kDrainDeadline;
        for (const auto& conn : connections_) {
          conn->read_closed = true;
          conn->read_buffer.clear();
        }
      }
      std::erase_if(connections_, [](const auto& c) { return c->done(); });
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          *drain_deadline - Clock::now());
      if (connections_.empty() || left.count() <= 0) break;
      if (!busy) timeout_ms = static_cast<int>(left.count());
    }
    publish_gauges();

    // Index 0 is the listener, 1 the wake pipe, 2 + i connection i. A
    // connection with nothing to wait for gets fd -1, which poll() skips.
    pfds.clear();
    pfds.push_back({listen_socket_.valid() ? listen_socket_.fd() : -1,
                    POLLIN, 0});
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = 0;
      if (conn->wants_read()) events |= POLLIN;
      if (conn->unsent() > 0) events |= POLLOUT;
      pfds.push_back({events != 0 ? conn->socket.fd() : -1, events, 0});
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout_ms) <
        0) {
      continue;  // EINTR
    }

    if ((pfds[1].revents & POLLIN) != 0) {
      char sink[64];
      while (::read(wake_read_fd_, sink, sizeof(sink)) > 0) {
      }
    }
    // Every connection runs each turn: a wake byte says that some shard
    // future is ready, not whose.
    busy = false;
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = *connections_[i];
      const bool readable =
          (pfds[2 + i].events & POLLIN) != 0 &&
          (pfds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
      if (readable && !read_ready(conn)) {
        conn.socket.close_fd();
        continue;
      }
      dispatch_frames(conn);
      if (!flush(conn)) {
        conn.socket.close_fd();
        continue;
      }
      busy = busy || conn.runnable();
    }
    std::erase_if(connections_, [](const auto& c) {
      return !c->socket.valid() || c->done();
    });
    if ((pfds[0].revents & POLLIN) != 0) accept_ready();
  }
  connections_.clear();
  publish_gauges();
}

void NetServer::publish_gauges() {
  std::uint64_t slots = 0;
  std::uint64_t bytes = 0;
  std::uint64_t paused = 0;
  for (const auto& conn : connections_) {
    slots += conn->slots.size();
    bytes += conn->unsent();
    if (!conn->read_closed && conn->paused()) ++paused;
  }
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
  pending_slots_.store(slots, std::memory_order_relaxed);
  outbound_bytes_.store(bytes, std::memory_order_relaxed);
  paused_connections_.store(paused, std::memory_order_relaxed);
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_socket_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: accepted everything pending
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = Socket(fd);
    try {
      set_nonblocking(fd, true);
    } catch (const std::runtime_error&) {
      continue;  // fcntl failed: drop (and close) this connection
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.push_back(std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool NetServer::read_ready(Connection& conn) {
  // One read per turn, so one busy sender cannot starve the others.
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.socket.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn.read_buffer.insert(conn.read_buffer.end(), buf, buf + n);
      return true;
    }
    if (n == 0) {
      // EOF: answer what was already read. A partial frame never
      // completes and is dropped with the connection.
      conn.read_closed = true;
      return true;
    }
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;  // else ECONNRESET & co.
  }
}

void NetServer::dispatch_frames(Connection& conn) {
  conn.backlog = false;
  while (!conn.paused()) {
    Frame frame;
    try {
      if (!try_extract_frame(conn.read_buffer, frame,
                             config_.max_frame_bytes)) {
        return;
      }
    } catch (const ProtocolError& e) {
      // The stream is no longer delimited: answer BadFrame, stop reading,
      // hang up once the error is sent.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      conn.read_closed = true;
      conn.read_buffer.clear();
      Slot slot;
      slot.code = ErrorCode::kBadFrame;
      slot.message = e.what();
      conn.slots.push_back(std::move(slot));
      return;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    handle_frame(conn, std::move(frame));
  }
  // Paused; whatever is left (possibly nothing) waits for room.
  conn.backlog = !conn.read_buffer.empty();
}

void NetServer::handle_frame(Connection& conn, Frame frame) {
  DCN_TRACE_SPAN("net.frame", "serve.net");
  const auto push = [&conn](Slot::Kind kind) -> Slot& {
    conn.slots.emplace_back().kind = kind;
    return conn.slots.back();
  };
  const auto send_error = [&](ErrorCode code, std::uint32_t retry_ms,
                              std::string message,
                              const obs::TraceContext& trace = {}) {
    Slot& slot = push(Slot::Kind::kError);
    slot.code = code;
    slot.retry_after_ms = retry_ms;
    slot.message = std::move(message);
    slot.trace = trace;
  };

  switch (frame.type) {
    case MsgType::kPredictRequest:
    case MsgType::kPredictVerboseRequest: {
      PredictRequest request;
      try {
        request = decode_predict_request(frame.payload);
      } catch (const ProtocolError& e) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        send_error(ErrorCode::kBadPayload, 0, e.what());
        return;
      }
      if (draining_.load(std::memory_order_acquire)) {
        send_error(ErrorCode::kShuttingDown, 0, "server draining",
                   request.trace);
        return;
      }
      // Dispatch under the request's context so the server-side placement
      // span stitches into the client's trace.
      obs::ScopedTraceContext trace_scope(request.trace);
      DCN_TRACE_SPAN("net.dispatch", "serve.net");
      RouterTicket ticket;
      try {
        ticket = router_->submit(std::move(request.input), request.trace,
                                 [this] { wake(); });
      } catch (const std::exception&) {
        send_error(ErrorCode::kShuttingDown, 0, "server draining",
                   request.trace);
        return;
      }
      if (!ticket.admitted) {
        send_error(ErrorCode::kOverloaded, ticket.retry_after_ms,
                   std::string("shed: ") + shed_reason_name(ticket.reason),
                   request.trace);
        return;
      }
      Slot& slot = push(Slot::Kind::kPredict);
      slot.verbose = frame.type == MsgType::kPredictVerboseRequest;
      slot.shard = static_cast<std::uint32_t>(ticket.shard);
      slot.future = std::move(ticket.future);
      slot.trace = request.trace;
      return;
    }
    case MsgType::kMetricsRequest:
      push(Slot::Kind::kMetrics);
      return;
    case MsgType::kHealthRequest:
      push(Slot::Kind::kHealth);
      return;
    case MsgType::kTraceRequest:
      push(Slot::Kind::kTrace);
      return;
    case MsgType::kTraceQueryRequest: {
      std::uint64_t hi = 0;
      std::uint64_t lo = 0;
      try {
        decode_trace_query(frame.payload, hi, lo);
      } catch (const ProtocolError& e) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        send_error(ErrorCode::kBadPayload, 0, e.what());
        return;
      }
      Slot& slot = push(Slot::Kind::kTraceQuery);
      slot.query_hi = hi;
      slot.query_lo = lo;
      return;
    }
    default: {
      // Unknown type: typed error, connection stays usable (forward
      // compatibility — see docs/PROTOCOL.md "Versioning").
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      send_error(ErrorCode::kBadType, 0,
                 "unknown message type " +
                     std::to_string(static_cast<unsigned>(frame.type)));
      return;
    }
  }
}

// ---- Responses -------------------------------------------------------------

Bytes NetServer::render(Slot& slot) {
  switch (slot.kind) {
    case Slot::Kind::kPredict:
      try {
        const ServeResult result = slot.future.get();
        return slot.verbose
                   ? encode_frame(MsgType::kPredictVerboseResponse,
                                  encode_verbose_response(result, slot.shard,
                                                          slot.trace))
                   : encode_frame(MsgType::kPredictResponse,
                                  encode_predict_response(result.label));
      } catch (const std::exception& e) {
        // The shard rejected the batch — in practice a tensor the model
        // cannot take (everything else is caught before submit).
        return encode_frame(
            MsgType::kErrorResponse,
            encode_error(ErrorCode::kBadShape, 0, e.what(), slot.trace));
      }
    case Slot::Kind::kMetrics:
      return encode_frame(MsgType::kMetricsResponse,
                          encode_text(obs::registry().render_prometheus()));
    case Slot::Kind::kHealth:
      return encode_frame(MsgType::kHealthResponse,
                          encode_health(health_now()));
    case Slot::Kind::kTrace:
      return encode_frame(MsgType::kTraceResponse,
                          encode_text(obs::trace_export()));
    case Slot::Kind::kTraceQuery:
      return encode_frame(
          MsgType::kTraceQueryResponse,
          encode_text(trace_query_json(
              slot.query_hi, slot.query_lo,
              router_->decision_records(slot.query_hi, slot.query_lo))));
    case Slot::Kind::kError:
      break;
  }
  return encode_frame(MsgType::kErrorResponse,
                      encode_error(slot.code, slot.retry_after_ms,
                                   slot.message, slot.trace));
}

bool NetServer::flush(Connection& conn) {
  // One round per turn: render at most up to the outbound cap, so one
  // connection's answers cannot hold up every other connection's turn.
  conn.outbound.erase(conn.outbound.begin(),
                      conn.outbound.begin() + static_cast<long>(conn.sent));
  conn.sent = 0;
  while (!conn.slots.empty() && conn.outbound.size() < kMaxOutboundBytes &&
         conn.slots.front().ready()) {
    const Bytes frame = render(conn.slots.front());
    conn.slots.pop_front();
    conn.outbound.insert(conn.outbound.end(), frame.begin(), frame.end());
    ++conn.frames_out;
  }
  while (conn.sent < conn.outbound.size()) {
    const ssize_t n =
        ::send(conn.socket.fd(), conn.outbound.data() + conn.sent,
               conn.outbound.size() - conn.sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // EAGAIN: the rest waits for POLLOUT. Anything else: the peer is
    // gone, and its unanswered slots go with the connection.
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  responses_sent_.fetch_add(conn.frames_out, std::memory_order_relaxed);
  conn.frames_out = 0;
  conn.outbound.clear();
  conn.sent = 0;
  return true;
}

}  // namespace dcn::serve::net
