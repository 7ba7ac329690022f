// ShardRouter — N DcnServer replicas behind least-loaded placement with
// admission control.
//
// Each shard wraps its own complete DCN stack (model replica, detector,
// corrector) in a DcnServer, so shards never share mutable state and the
// corrector's positional RNG stream stays per-shard. Placement is
// least-loaded: a request goes to the shard with the fewest in-flight
// requests (submitted minus completed, i.e. queued plus being served), with
// a rotating tie-break so equal shards share work round-robin. For stateless
// inference this dominates consistent hashing — there is no per-key state to
// keep warm, so hashing would only manufacture hot shards (DESIGN.md,
// "Network serving tier").
//
// Admission control sheds before queues grow unbounded, on two triggers:
//   kQueueDepth      total queued requests across shards reached the
//                    watermark — classic overload.
//   kCorrectorBurst  an EWMA of the detector-positive (corrector-activation)
//                    rate crossed its threshold — the defense-specific
//                    overload, where a detector-aware adversary makes every
//                    request pay the corrector's region vote and per-request
//                    cost multiplies (ISSUE 7 / Table 6 mixes).
// A shed request gets a typed Overloaded error with a retry-after hint
// instead of a future; the caller (NetServer) turns that into a wire frame.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/server.hpp"

namespace dcn::serve::net {

struct AdmissionConfig {
  /// Shed once the total queued (not yet dispatched) request count across
  /// all shards reaches this watermark.
  std::size_t queue_watermark = 64;
  /// Shed once the corrector-activation EWMA exceeds this fraction. The
  /// rate cannot exceed 1.0, so the default (2.0) disables the trigger.
  double corrector_ewma_threshold = 2.0;
  /// Per-completed-request decay of the activation EWMA: with alpha = 0.05
  /// the window is ~20 requests, fast enough to catch a burst, slow enough
  /// to ignore one stray flagged request.
  double ewma_alpha = 0.05;
  /// Completed requests before the EWMA trigger arms (a cold server has no
  /// rate estimate worth shedding on).
  std::uint64_t ewma_warmup = 32;
  /// Base retry-after hint returned with Overloaded. Queue-depth sheds scale
  /// it by the overshoot so deeper overload pushes clients back harder.
  std::uint32_t retry_after_ms = 50;
  /// Expected steady-state detector-positive rate for this deployment. The
  /// dcn_attack_positive_rate_drift gauge reports the admission EWMA minus
  /// this baseline, so a detector-aware flood shows up as positive drift
  /// even on deployments whose benign traffic already trips the detector
  /// occasionally.
  double baseline_positive_rate = 0.0;
};

struct RouterConfig {
  ServerConfig server;  // per-shard micro-batching knobs
  AdmissionConfig admission;
};

enum class ShedReason { kNone, kQueueDepth, kCorrectorBurst };

[[nodiscard]] const char* shed_reason_name(ShedReason reason);

/// Outcome of ShardRouter::submit: either an admitted request with a live
/// future (and the shard it landed on), or a shed with the reason and the
/// retry-after hint to send back.
struct RouterTicket {
  bool admitted = false;
  ShedReason reason = ShedReason::kNone;
  std::size_t shard = 0;
  std::uint32_t retry_after_ms = 0;
  std::future<ServeResult> future;
};

class ShardRouter {
 public:
  /// One DcnServer is created per entry of `shards`. Every Dcn must be a
  /// full replica (own model, detector, corrector) and outlive the router.
  /// Throws std::invalid_argument for an empty shard list.
  explicit ShardRouter(std::vector<core::Dcn*> shards,
                       RouterConfig config = {});
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Admit (placing on the least-loaded shard) or shed one request. Throws
  /// std::runtime_error after shutdown(). A valid `trace` rides with the
  /// request into the shard's DcnServer (spans, DecisionRecord, exemplars);
  /// on a shed it attributes the dcn_attack_sheds_total sample instead.
  /// `on_ready` goes with an admitted request to DcnServer::submit; a shed
  /// never calls it.
  RouterTicket submit(Tensor input, const obs::TraceContext& trace = {},
                      std::function<void()> on_ready = {});

  /// Drain every shard. Idempotent; also called by the destructor. Pending
  /// admitted futures complete before this returns.
  void shutdown();

  [[nodiscard]] std::size_t shard_count() const { return servers_.size(); }
  [[nodiscard]] const DcnServer& shard(std::size_t i) const {
    return *servers_[i];
  }
  [[nodiscard]] const RouterConfig& config() const { return config_; }

  /// Total queued requests across shards (the admission watermark input).
  [[nodiscard]] std::size_t queue_depth_total() const;

  struct AdmissionStats {
    std::uint64_t admitted = 0;
    std::uint64_t shed_queue_depth = 0;
    std::uint64_t shed_corrector_burst = 0;
    double corrector_ewma = 0.0;
  };
  [[nodiscard]] AdmissionStats admission_stats() const;

  /// The dcn_attack_ observables: per-shard windowed detector-positive
  /// rate, per-shard shed attribution, and the drift of the admission EWMA
  /// over the configured baseline.
  struct AttackStats {
    std::vector<double> shard_positive_rate;  // per-shard EWMA
    std::vector<std::uint64_t> shard_sheds;   // sheds attributed per shard
    double drift = 0.0;  // admission EWMA - baseline_positive_rate
  };
  [[nodiscard]] AttackStats attack_stats() const;

  /// DecisionRecords across all shards (shard field stamped), newest-last
  /// within each shard. Zero (hi | lo) returns everything retained.
  [[nodiscard]] std::vector<DecisionRecord> decision_records(
      std::uint64_t trace_hi = 0, std::uint64_t trace_lo = 0) const;

  /// Aggregated metrics: the dcn_server_* schema merged across shards, plus
  /// a "router" block (placement + admission) and the runtime attribution.
  [[nodiscard]] eval::JsonObject metrics_json() const;

 private:
  RouterTicket admit_locked(Tensor input, const obs::TraceContext& trace,
                            std::function<void()> on_ready);
  void update_ewma_locked();
  std::size_t pick_shard_locked() const;

  RouterConfig config_;
  std::vector<std::unique_ptr<DcnServer>> servers_;

  mutable std::mutex mutex_;
  bool shutdown_ = false;
  double ewma_ = 0.0;
  std::uint64_t ewma_seen_completed_ = 0;
  std::uint64_t ewma_seen_positives_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_queue_depth_ = 0;
  std::uint64_t shed_corrector_burst_ = 0;
  std::uint64_t round_robin_ = 0;  // tie-break rotation
  // Per-shard dcn_attack_ state, folded alongside the admission EWMA with
  // the same alpha so a single shard soaking adversarial traffic stands out
  // even when the aggregate rate looks calm.
  std::vector<double> shard_ewma_;
  std::vector<std::uint64_t> shard_seen_completed_;
  std::vector<std::uint64_t> shard_seen_positives_;
  std::vector<std::uint64_t> shard_sheds_;

  std::size_t metrics_source_id_ = 0;
};

}  // namespace dcn::serve::net
