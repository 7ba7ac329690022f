#include "serve/server.hpp"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/corrector_stats.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace dcn::serve {

namespace {

using Clock = std::chrono::steady_clock;

double microseconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

DcnServer::DcnServer(core::Dcn& dcn, ServerConfig config)
    : dcn_(&dcn),
      config_(config),
      batcher_(config.max_batch, std::chrono::microseconds(config.max_delay_us)) {
  if (config_.register_metrics) {
    metrics_source_id_ = obs::registry().add_source(
        [this](std::vector<obs::Metric>& out) {
          metrics_.collect(out, batcher_.depth());
        });
  }
  dispatcher_ = std::thread([this] {
    runtime::set_thread_name("dcn-dispatch");
    dispatch_loop();
  });
}

DcnServer::~DcnServer() {
  shutdown();
  // Sources run under the registry lock, so after this no scrape can reach
  // the dying server.
  if (config_.register_metrics) {
    obs::registry().remove_source(metrics_source_id_);
  }
}

std::future<ServeResult> DcnServer::submit(Tensor input,
                                           const obs::TraceContext& trace,
                                           std::function<void()> on_ready) {
  // Install the request's trace context for the submit span, so the
  // enqueue-side work stitches into the caller's cross-process trace.
  obs::ScopedTraceContext trace_scope(trace);
  DCN_TRACE_SPAN("serve.submit", "serve");
  PendingRequest request;
  request.input = std::move(input);
  request.enqueued = Clock::now();
  request.sequence = next_sequence_.fetch_add(1, std::memory_order_relaxed);
  request.trace = trace;
  request.on_ready = std::move(on_ready);
  std::future<ServeResult> future = request.promise.get_future();
  if (!batcher_.push(request)) {
    metrics_.on_reject();
    throw std::runtime_error("DcnServer: submit after shutdown");
  }
  metrics_.on_submit(batcher_.depth());
  return future;
}

void DcnServer::shutdown() {
  batcher_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void DcnServer::dispatch_loop() {
  for (;;) {
    MicroBatcher::Flush flush = batcher_.next();
    if (flush.requests.empty()) return;  // closed and drained
    serve_flush(std::move(flush));
  }
}

void DcnServer::serve_flush(MicroBatcher::Flush flush) {
  const Clock::time_point dispatched = Clock::now();
  const std::size_t n = flush.requests.size();
  // The flush (and the Dcn work under it) runs under the first traced
  // request's context — a micro-batch computes one fused forward pass, so
  // its spans genuinely belong to every member, and one adoptive parent
  // beats unattributed spans. Per-request attribution lives in the
  // DecisionRecords below.
  obs::TraceContext batch_trace;
  for (const PendingRequest& r : flush.requests) {
    if (r.trace.valid()) {
      batch_trace = r.trace;
      break;
    }
  }
  obs::ScopedTraceContext trace_scope(batch_trace);
  DCN_TRACE_SPAN_ARG("serve.flush", "serve", "batch", n);
  metrics_.on_flush(n, flush.reason == FlushReason::kFull,
                    flush.reason == FlushReason::kTimer);

  std::vector<core::Dcn::Decision> decisions;
  try {
    std::vector<Tensor> inputs;
    inputs.reserve(n);
    for (PendingRequest& r : flush.requests) inputs.push_back(r.input);
    decisions = dcn_->predict_verbose(Tensor::stack(inputs));
  } catch (...) {
    // Shape mismatch inside the batch or a failure in the model: every
    // requester of this flush gets the exception instead of a result.
    const std::exception_ptr error = std::current_exception();
    for (PendingRequest& r : flush.requests) {
      r.promise.set_exception(error);
      if (r.on_ready) r.on_ready();
    }
    return;
  }

  const Clock::time_point done = Clock::now();
  const double compute_us = microseconds_between(dispatched, done);
  for (std::size_t i = 0; i < n; ++i) {
    PendingRequest& r = flush.requests[i];
    ServeResult result;
    result.label = decisions[i].label;
    result.flagged_adversarial = decisions[i].flagged_adversarial;
    result.dnn_label = decisions[i].dnn_label;
    result.tier0_resolved = decisions[i].tier0_resolved;
    result.corrector_samples = decisions[i].corrector_samples;
    result.batch_size = n;
    result.sequence = r.sequence;
    result.queue_us = microseconds_between(r.enqueued, dispatched);
    result.total_us = microseconds_between(r.enqueued, done);
    result.detector_margin = decisions[i].detector_margin;
    result.chunks_used = decisions[i].chunks_used;
    result.stop_rule = static_cast<std::uint8_t>(decisions[i].stop_rule);
    result.tier0_policy = decisions[i].tier0_policy;
    result.rng_segment = decisions[i].rng_segment;
    result.compute_us = compute_us;
    metrics_.on_result(result.flagged_adversarial, result.tier0_resolved,
                       result.corrector_samples, result.queue_us,
                       result.total_us, r.trace);
    if (config_.decision_ring > 0) {
      DecisionRecord record;
      record.trace_hi = r.trace.trace_hi;
      record.trace_lo = r.trace.trace_lo;
      record.result = result;
      std::lock_guard<std::mutex> lock(records_mutex_);
      records_.push_back(std::move(record));
      while (records_.size() > config_.decision_ring) records_.pop_front();
    }
    r.promise.set_value(result);
    if (r.on_ready) r.on_ready();
  }
}

std::vector<DecisionRecord> DcnServer::decision_records(
    std::uint64_t trace_hi, std::uint64_t trace_lo) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  std::vector<DecisionRecord> out;
  for (const DecisionRecord& r : records_) {
    if ((trace_hi | trace_lo) != 0 &&
        (r.trace_hi != trace_hi || r.trace_lo != trace_lo)) {
      continue;
    }
    out.push_back(r);
  }
  return out;
}

eval::JsonObject DcnServer::metrics_json() const {
  eval::JsonObject json = metrics_.to_json(batcher_.depth());
  json.set("runtime", obs::runtime_metrics_json());
  json.set("corrector", core::corrector_stats_json());
  return json;
}

}  // namespace dcn::serve
