// Timed micro-batch coalescing for the DCN server.
//
// Producer threads push single requests; one consumer (the server's
// dispatcher) blocks in next() until a flush condition holds:
//
//   kFull     — max_batch requests are queued; take exactly max_batch.
//   kTimer    — the oldest request has waited max_delay; take what's there.
//   kShutdown — close() was called with requests still queued; drain them.
//
// Requests leave in arrival (push) order, and a flush never reorders or
// splits beyond taking the first min(depth, max_batch) entries. That FIFO
// guarantee is what makes serving batching-invariant: downstream,
// Dcn::predict_verbose consumes the corrector RNG stream in row order, so
// any micro-batch partition of the same request sequence computes the same
// responses (pinned by tests/test_serve.cpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "obs/trace_id.hpp"
#include "serve/types.hpp"
#include "tensor/tensor.hpp"

namespace dcn::serve {

/// A queued request: the input, the promise its submitter holds the future
/// of, and the bookkeeping the metrics layer needs. `trace` is the wire
/// trace context riding with the request (invalid when the caller sent
/// none) — carried here so provenance works even when the span tracer is
/// compiled out. `on_ready` (may be empty) runs on the dispatcher right
/// after the promise is fulfilled, so an event loop can learn that the
/// future is ready without blocking on it.
struct PendingRequest {
  Tensor input;
  std::promise<ServeResult> promise;
  std::chrono::steady_clock::time_point enqueued;
  std::uint64_t sequence = 0;
  obs::TraceContext trace;
  std::function<void()> on_ready;
};

class MicroBatcher {
 public:
  MicroBatcher(std::size_t max_batch, std::chrono::microseconds max_delay);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueue a request. Returns false (leaving the request untouched in the
  /// caller's hands) once close() has been called.
  bool push(PendingRequest& request);

  /// Stop accepting requests and wake the consumer so it drains the queue.
  void close();

  struct Flush {
    std::vector<PendingRequest> requests;  // empty => closed and drained
    FlushReason reason = FlushReason::kShutdown;
  };

  /// Block until a flush is due and take it. An empty Flush means the
  /// batcher is closed and fully drained — the consumer should exit.
  Flush next();

  /// Current queue depth (instantaneous; for monitoring only).
  [[nodiscard]] std::size_t depth() const;

 private:
  /// Pop the first min(depth, max_batch) requests. Requires the lock.
  Flush take_locked(FlushReason reason);

  const std::size_t max_batch_;
  const std::chrono::microseconds max_delay_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
};

}  // namespace dcn::serve
