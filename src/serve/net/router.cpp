#include "serve/net/router.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/corrector_stats.hpp"
#include "obs/registry.hpp"

namespace dcn::serve::net {

const char* shed_reason_name(ShedReason reason) {
  switch (reason) {
    case ShedReason::kNone: return "none";
    case ShedReason::kQueueDepth: return "queue_depth";
    case ShedReason::kCorrectorBurst: return "corrector_burst";
  }
  return "unknown";
}

ShardRouter::ShardRouter(std::vector<core::Dcn*> shards, RouterConfig config)
    : config_(config) {
  if (shards.empty()) {
    throw std::invalid_argument("ShardRouter: need at least one shard");
  }
  ServerConfig per_shard = config_.server;
  per_shard.register_metrics = false;  // we export one aggregated source
  servers_.reserve(shards.size());
  for (core::Dcn* dcn : shards) {
    servers_.push_back(std::make_unique<DcnServer>(*dcn, per_shard));
  }
  shard_ewma_.assign(servers_.size(), 0.0);
  shard_seen_completed_.assign(servers_.size(), 0);
  shard_seen_positives_.assign(servers_.size(), 0);
  shard_sheds_.assign(servers_.size(), 0);
  metrics_source_id_ = obs::registry().add_source(
      [this](std::vector<obs::Metric>& out) {
        // Aggregate the shard blocks into one dcn_server_* family set, then
        // append the router's own placement/admission samples.
        ServerMetrics aggregate;
        for (const auto& server : servers_) aggregate.merge(server->metrics());
        aggregate.collect(out, queue_depth_total());
        const AdmissionStats stats = admission_stats();
        out.push_back({"dcn_router_shards", "Shard replicas behind the router",
                       obs::MetricType::kGauge, "", "",
                       static_cast<double>(servers_.size())});
        out.push_back({"dcn_router_admitted_total",
                       "Requests admitted by the router",
                       obs::MetricType::kCounter, "", "",
                       static_cast<double>(stats.admitted)});
        out.push_back({"dcn_router_shed_total",
                       "Requests shed by admission control",
                       obs::MetricType::kCounter, "reason", "queue_depth",
                       static_cast<double>(stats.shed_queue_depth)});
        out.push_back({"dcn_router_shed_total",
                       "Requests shed by admission control",
                       obs::MetricType::kCounter, "reason", "corrector_burst",
                       static_cast<double>(stats.shed_corrector_burst)});
        out.push_back({"dcn_router_corrector_ewma",
                       "EWMA of the detector-positive rate",
                       obs::MetricType::kGauge, "", "",
                       stats.corrector_ewma});
        // The dcn_attack_ family: the defense-specific overload signals a
        // detector-aware adversary produces (docs/OPERATIONS.md "Attack
        // pressure").
        const AttackStats attack = attack_stats();
        for (std::size_t i = 0; i < attack.shard_positive_rate.size(); ++i) {
          out.push_back({"dcn_attack_positive_rate",
                         "Windowed detector-positive rate, per shard",
                         obs::MetricType::kGauge, "shard", std::to_string(i),
                         attack.shard_positive_rate[i]});
        }
        out.push_back({"dcn_attack_positive_rate_drift",
                       "Admission EWMA minus the configured baseline rate",
                       obs::MetricType::kGauge, "", "", attack.drift});
        for (std::size_t i = 0; i < attack.shard_sheds.size(); ++i) {
          out.push_back({"dcn_attack_sheds_total",
                         "Requests shed, attributed to the shard that would "
                         "have served them",
                         obs::MetricType::kCounter, "shard", std::to_string(i),
                         static_cast<double>(attack.shard_sheds[i])});
        }
      });
}

ShardRouter::~ShardRouter() {
  shutdown();
  obs::registry().remove_source(metrics_source_id_);
}

RouterTicket ShardRouter::submit(Tensor input, const obs::TraceContext& trace,
                                 std::function<void()> on_ready) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    throw std::runtime_error("ShardRouter: submit after shutdown");
  }
  return admit_locked(std::move(input), trace, std::move(on_ready));
}

RouterTicket ShardRouter::admit_locked(Tensor input,
                                       const obs::TraceContext& trace,
                                       std::function<void()> on_ready) {
  update_ewma_locked();
  const AdmissionConfig& adm = config_.admission;
  RouterTicket ticket;

  // A shed still answers "which shard would this have hit" so
  // dcn_attack_sheds_total localizes the pressure — without advancing the
  // tie-break rotation, which only moves for placements that happened
  // (admitted traffic must land on the same shards whether or not sheds
  // interleave).
  const std::size_t shard = pick_shard_locked();
  ticket.shard = shard;

  const std::size_t queued = queue_depth_total();
  if (queued >= adm.queue_watermark) {
    ++shed_queue_depth_;
    ++shard_sheds_[shard];
    ticket.reason = ShedReason::kQueueDepth;
    // Scale the hint by the overshoot (capped at 8x) so deeper overload
    // pushes retries further out.
    const std::size_t over =
        std::min<std::size_t>(8, 1 + queued / std::max<std::size_t>(
                                         1, adm.queue_watermark));
    ticket.retry_after_ms =
        adm.retry_after_ms * static_cast<std::uint32_t>(over);
    return ticket;
  }
  if (adm.corrector_ewma_threshold <= 1.0 &&
      ewma_seen_completed_ >= adm.ewma_warmup &&
      ewma_ > adm.corrector_ewma_threshold) {
    ++shed_corrector_burst_;
    ++shard_sheds_[shard];
    ticket.reason = ShedReason::kCorrectorBurst;
    ticket.retry_after_ms = adm.retry_after_ms;
    return ticket;
  }

  ++round_robin_;
  ticket.future =
      servers_[shard]->submit(std::move(input), trace, std::move(on_ready));
  ticket.admitted = true;
  ++admitted_;
  return ticket;
}

void ShardRouter::update_ewma_locked() {
  std::uint64_t completed = 0;
  std::uint64_t positives = 0;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const ServerMetrics& m = servers_[i]->metrics();
    const std::uint64_t c = m.completed_count();
    const std::uint64_t p = m.detector_positive_count();
    completed += c;
    positives += p;
    // Per-shard dcn_attack_positive_rate: the same delta-folding as the
    // admission EWMA below, applied to this shard's own counters.
    const std::uint64_t dci = c - shard_seen_completed_[i];
    if (dci != 0) {
      const std::uint64_t dpi = p - shard_seen_positives_[i];
      const double keep_i = std::pow(1.0 - config_.admission.ewma_alpha,
                                     static_cast<double>(dci));
      const double rate_i =
          static_cast<double>(dpi) / static_cast<double>(dci);
      shard_ewma_[i] = shard_ewma_[i] * keep_i + rate_i * (1.0 - keep_i);
      shard_seen_completed_[i] = c;
      shard_seen_positives_[i] = p;
    }
  }
  const std::uint64_t dc = completed - ewma_seen_completed_;
  if (dc == 0) return;
  const std::uint64_t dp = positives - ewma_seen_positives_;
  // Fold dc single-request updates at once: each completed request decays
  // the EWMA by (1 - alpha) and contributes alpha * flagged, so a batch of
  // dc requests at mean rate dp/dc lands exactly where dc sequential
  // updates with that mix would.
  const double keep = std::pow(1.0 - config_.admission.ewma_alpha,
                               static_cast<double>(dc));
  const double rate = static_cast<double>(dp) / static_cast<double>(dc);
  ewma_ = ewma_ * keep + rate * (1.0 - keep);
  ewma_seen_completed_ = completed;
  ewma_seen_positives_ = positives;
}

std::size_t ShardRouter::pick_shard_locked() const {
  std::size_t best = 0;
  std::uint64_t best_load = ~0ULL;
  const std::size_t n = servers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    // Rotate the scan start so ties break round-robin instead of always
    // landing on shard 0.
    const std::size_t s = (round_robin_ + i) % n;
    const ServerMetrics& m = servers_[s]->metrics();
    const std::uint64_t in_flight =
        m.submitted_count() - m.completed_count();
    if (in_flight < best_load) {
      best_load = in_flight;
      best = s;
    }
  }
  return best;
}

void ShardRouter::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Drain outside the lock: shard shutdowns block on their dispatchers.
  for (auto& server : servers_) server->shutdown();
}

std::size_t ShardRouter::queue_depth_total() const {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server->queue_depth();
  return total;
}

ShardRouter::AdmissionStats ShardRouter::admission_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdmissionStats stats;
  stats.admitted = admitted_;
  stats.shed_queue_depth = shed_queue_depth_;
  stats.shed_corrector_burst = shed_corrector_burst_;
  stats.corrector_ewma = ewma_;
  return stats;
}

ShardRouter::AttackStats ShardRouter::attack_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AttackStats stats;
  stats.shard_positive_rate = shard_ewma_;
  stats.shard_sheds = shard_sheds_;
  stats.drift = ewma_ - config_.admission.baseline_positive_rate;
  return stats;
}

std::vector<DecisionRecord> ShardRouter::decision_records(
    std::uint64_t trace_hi, std::uint64_t trace_lo) const {
  std::vector<DecisionRecord> out;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    for (DecisionRecord r : servers_[i]->decision_records(trace_hi, trace_lo)) {
      r.shard = static_cast<std::uint32_t>(i);
      out.push_back(std::move(r));
    }
  }
  return out;
}

eval::JsonObject ShardRouter::metrics_json() const {
  ServerMetrics aggregate;
  for (const auto& server : servers_) aggregate.merge(server->metrics());
  eval::JsonObject json = aggregate.to_json(queue_depth_total());

  const AdmissionStats stats = admission_stats();
  const AttackStats attack = attack_stats();
  eval::JsonObject router;
  router.set("shards", servers_.size())
      .set("admitted", static_cast<std::size_t>(stats.admitted))
      .set("shed_queue_depth",
           static_cast<std::size_t>(stats.shed_queue_depth))
      .set("shed_corrector_burst",
           static_cast<std::size_t>(stats.shed_corrector_burst))
      .set("corrector_ewma", stats.corrector_ewma)
      .set("queue_watermark", config_.admission.queue_watermark)
      .set("corrector_ewma_threshold",
           config_.admission.corrector_ewma_threshold)
      .set("baseline_positive_rate",
           config_.admission.baseline_positive_rate)
      .set("positive_rate_drift", attack.drift);
  eval::JsonObject per_shard;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const ServerMetrics& m = servers_[i]->metrics();
    eval::JsonObject s;
    s.set("submitted", static_cast<std::size_t>(m.submitted_count()))
        .set("completed", static_cast<std::size_t>(m.completed_count()))
        .set("queue_depth", servers_[i]->queue_depth())
        .set("positive_rate", attack.shard_positive_rate[i])
        .set("sheds", static_cast<std::size_t>(attack.shard_sheds[i]));
    per_shard.set("shard_" + std::to_string(i), s);
  }
  router.set("per_shard", per_shard);
  json.set("router", router);
  json.set("runtime", obs::runtime_metrics_json());
  json.set("corrector", core::corrector_stats_json());
  return json;
}

}  // namespace dcn::serve::net
