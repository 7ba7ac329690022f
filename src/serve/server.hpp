// DcnServer — the request-batching front end over Dcn::predict.
//
// Concurrent callers submit() single images and get a future; one dispatcher
// thread coalesces the queue into timed micro-batches (MicroBatcher) and
// runs each through the batched Dcn::predict_verbose path, which spreads
// the forward pass and any corrector votes across the runtime thread pool.
// There is no second pool: the dispatcher (named "dcn-dispatch") is the only
// thread the server adds, and all heavy lifting happens on runtime::pool().
//
// Dataflow:
//
//   submit(x) ──┐
//   submit(x) ──┤  FIFO queue  ──(full | timer | shutdown)──► micro-batch
//   submit(x) ──┘ (MicroBatcher)                                   │
//                                                     Dcn::predict_verbose
//                                                    (runtime thread pool)
//                                                                  │
//   future.get() ◄── promise per request ◄── ServeResult + metrics ┘
//
// Batching invariance: requests are served strictly in arrival order and
// Dcn::predict_verbose decides rows in index order, so responses are
// bit-identical to feeding the same request sequence through Dcn one at a
// time — micro-batch boundaries never change an answer (the determinism
// contract; pinned by tests/test_serve.cpp, documented in
// docs/OPERATIONS.md).
#pragma once

#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/dcn.hpp"
#include "serve/metrics.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/types.hpp"

namespace dcn::serve {

class DcnServer {
 public:
  /// The Dcn (and everything it references) must outlive the server. The
  /// server assumes exclusive use of the Dcn while running: the corrector's
  /// RNG stream is part of the response, so interleaving outside calls
  /// would change which stream segment a request consumes.
  explicit DcnServer(core::Dcn& dcn, ServerConfig config = {});

  /// Drains in-flight requests (shutdown()) before destruction.
  ~DcnServer();

  DcnServer(const DcnServer&) = delete;
  DcnServer& operator=(const DcnServer&) = delete;

  /// Enqueue one input (shape = one example, no batch axis; all requests
  /// must share one shape). Returns the future of the response. Throws
  /// std::runtime_error after shutdown(). A valid `trace` attaches a wire
  /// trace context: its spans join that trace, its DecisionRecord is
  /// queryable by that id, and it seeds metric exemplars when sampled.
  /// `on_ready`, when set, runs on the dispatcher thread once the future is
  /// ready (value or exception); it must be cheap and must not block.
  std::future<ServeResult> submit(Tensor input,
                                  const obs::TraceContext& trace = {},
                                  std::function<void()> on_ready = {});

  /// Stop accepting requests, serve everything still queued, and join the
  /// dispatcher. Idempotent; also called by the destructor.
  void shutdown();

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] const ServerMetrics& metrics() const { return metrics_; }

  /// Requests currently waiting in the micro-batcher (excludes the batch
  /// being served). The router's admission watermark reads this.
  [[nodiscard]] std::size_t queue_depth() const { return batcher_.depth(); }

  /// Snapshot of the full metrics schema (docs/OPERATIONS.md), including
  /// the live queue depth and the library-level "runtime" block (kernel
  /// counters, pool gauges, tracer health).
  [[nodiscard]] eval::JsonObject metrics_json() const;

  /// Retained DecisionRecords, newest last. A zero (hi | lo) returns the
  /// whole ring; otherwise only records of that trace id. The ring is
  /// bounded by ServerConfig::decision_ring, so this is a recent-history
  /// query, not an archive.
  [[nodiscard]] std::vector<DecisionRecord> decision_records(
      std::uint64_t trace_hi = 0, std::uint64_t trace_lo = 0) const;

 private:
  void dispatch_loop();
  void serve_flush(MicroBatcher::Flush flush);

  core::Dcn* dcn_;
  ServerConfig config_;
  ServerMetrics metrics_;
  MicroBatcher batcher_;
  // Monotonic FIFO admission ticket, not a seqlock version counter; there
  // are no paired data words to tear.
  std::atomic<std::uint64_t> next_sequence_{0};
  std::size_t metrics_source_id_ = 0;  // handle in obs::registry()
  // Bounded ring of recent DecisionRecords. Mutex-guarded: only the
  // dispatcher writes (once per request, off the submit path) and only
  // TraceQuery reads, so there is nothing worth a lock-free design here.
  mutable std::mutex records_mutex_;
  std::deque<DecisionRecord> records_;
  std::thread dispatcher_;
};

}  // namespace dcn::serve
