#include "core/corrector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/corrector_stats.hpp"
#include "data/transforms.hpp"
// Span tracing is the sanctioned obs hook: compile-out-able
// (DCN_TRACE=OFF) and write-only, it never feeds state back into the
// numerics.
// dcn-lint: allow(include-layering)
#include "obs/trace.hpp"

namespace dcn::core {

namespace {

/// std::clamp(v, kPixelMin, kPixelMax) as two selects: the same result for
/// every input (NaN and -0 included), but without std::clamp's branches,
/// which mispredict on MNIST's saturated pixels.
inline float clamp_pixel(float v) {
  const float u = data::kPixelMin > v ? data::kPixelMin : v;
  return data::kPixelMax < u ? data::kPixelMax : u;
}

/// Fill `dst` (m * x.size() floats) with hypercube samples around x. The
/// draw order — sample-major, element-minor, one uniform() per element — is
/// the corrector stream contract; every generation path funnels through
/// here so the contract cannot drift between the eager and lazy paths.
void sample_region_into(const Tensor& x, std::size_t m, float radius,
                        Rng& rng, bool clip_to_box, float* dst) {
  const std::size_t d = x.size();
  const float* src = x.data().data();
  for (std::size_t s = 0; s < m; ++s) {
    float* row = dst + s * d;
    for (std::size_t i = 0; i < d; ++i) {
      row[i] = src[i] + static_cast<float>(rng.uniform(-radius, radius));
    }
    // A second pass, not a clamp inside the draw loop: on its own the
    // select pair vectorizes into packed compares and masks, while in the
    // draw loop the compiler turns it back into two data-dependent
    // branches.
    if (clip_to_box) {
      for (std::size_t i = 0; i < d; ++i) row[i] = clamp_pixel(row[i]);
    }
  }
}

}  // namespace

Tensor sample_region_batch(const Tensor& x, std::size_t m, float radius,
                           Rng& rng, bool clip_to_box) {
  std::vector<std::size_t> dims;
  dims.push_back(m);
  for (std::size_t d : x.shape().dims()) dims.push_back(d);
  Tensor batch{Shape(dims)};
  // Serial generation keeps every vote histogram bit-identical to the
  // pre-batching single-example loop at any thread count. It is not free:
  // a 784-pixel sample cost ~6.6 us with an out-of-line draw and a branchy
  // clamp per pixel, a tenth of a 45-65 us one-row forward. With the draw
  // inlined and the clamp branch-free it costs ~3 us (one thread of a
  // 4-vCPU Xeon VM; `served_forward` in BENCH_runtime.json).
  sample_region_into(x, m, radius, rng, clip_to_box, batch.data().data());
  return batch;
}

std::size_t VoteOutcome::winner() const {
  return static_cast<std::size_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

std::vector<std::size_t> normalize_schedule(
    const std::vector<std::size_t>& schedule, std::size_t m) {
  std::vector<std::size_t> chunks;
  std::size_t covered = 0;
  for (std::size_t c : schedule) {
    if (covered >= m) break;
    c = std::min(c, m - covered);
    if (c == 0) continue;
    chunks.push_back(c);
    covered += c;
  }
  if (covered < m) chunks.push_back(m - covered);
  return chunks;
}

namespace {

/// Top-two vote counts: {leader, runner-up} (runner-up 0 for one class).
std::pair<std::size_t, std::size_t> top_two(
    const std::vector<std::size_t>& votes) {
  std::size_t first = 0, second = 0;
  for (std::size_t v : votes) {
    if (v > first) {
      second = first;
      first = v;
    } else if (v > second) {
      second = v;
    }
  }
  return {first, second};
}

/// A stopping rule fires at a chunk boundary iff the current leader cannot
/// (certain) or will not, with probability >= 1 - delta (Hoeffding), lose
/// its lead over the remaining samples. Returns which rule fired (kNone when
/// the vote continues) — attribution only; the conditions and their order
/// are unchanged.
StopRule vote_decided(const std::vector<std::size_t>& votes, std::size_t t,
                      std::size_t remaining, double delta) {
  const auto [first, second] = top_two(votes);
  const std::size_t lead = first - second;
  if (lead > remaining) return StopRule::kCertain;  // the winner is fixed
  if (delta > 0.0) {
    const double bound =
        std::sqrt(2.0 * static_cast<double>(t) * std::log(1.0 / delta));
    if (static_cast<double>(lead) >= bound) return StopRule::kHoeffding;
  }
  return StopRule::kNone;
}

/// The full rule chain for a hinted vote: certain, then Hoeffding, then the
/// hint rule (leader equals the caller's proposal with a unique lead of at
/// least hint_min_lead). All three exit with the current leader as the
/// answer, so rule order never changes the outcome, only the attribution.
StopRule vote_decided_hinted(const std::vector<std::size_t>& votes,
                             std::size_t t, std::size_t remaining, double delta,
                             long hint, std::size_t hint_min_lead) {
  const StopRule rule = vote_decided(votes, t, remaining, delta);
  if (rule != StopRule::kNone) return rule;
  if (hint < 0) return StopRule::kNone;
  const auto [first, second] = top_two(votes);
  const std::size_t lead = first - second;
  if (lead < std::max<std::size_t>(1, hint_min_lead)) return StopRule::kNone;
  const std::size_t leader = static_cast<std::size_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
  return leader == static_cast<std::size_t>(hint) ? StopRule::kHint
                                                  : StopRule::kNone;
}

/// Rows [lo, hi) of a [m, d...] batch as their own contiguous batch. A plain
/// copy: chunk extraction moves ~hi-lo images, which is noise next to the
/// forward passes it feeds.
Tensor batch_rows(const Tensor& batch, std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> dims = batch.shape().dims();
  dims[0] = hi - lo;
  Tensor out{Shape(dims)};
  const std::size_t d = batch.size() / batch.dim(0);
  std::memcpy(out.data().data(), batch.data().data() + lo * d,
              (hi - lo) * d * sizeof(float));
  return out;
}

}  // namespace

VoteOutcome chunked_vote(nn::Sequential& model, const Tensor& batch,
                         std::size_t num_classes,
                         const std::vector<std::size_t>& chunks,
                         double stop_delta) {
  const std::size_t m = batch.dim(0);
  VoteOutcome outcome;
  outcome.votes.assign(num_classes, 0);
  for (std::size_t chunk : chunks) {
    const std::size_t lo = outcome.samples_used;
    const std::size_t hi = std::min(lo + chunk, m);
    if (lo >= hi) break;
    const Tensor sub = batch_rows(batch, lo, hi);
    for (std::size_t label : model.classify_batch(sub)) {
      if (label >= outcome.votes.size()) {
        throw std::logic_error("chunked_vote: label out of range");
      }
      ++outcome.votes[label];
    }
    outcome.samples_used = hi;
    ++outcome.chunks_used;
    if (outcome.samples_used >= m) break;
    const StopRule rule = vote_decided(outcome.votes, outcome.samples_used,
                                       m - outcome.samples_used, stop_delta);
    if (rule != StopRule::kNone) {
      outcome.exited_early = true;
      outcome.stop_rule = rule;
      break;
    }
  }
  if (!outcome.exited_early && outcome.samples_used > 0) {
    outcome.stop_rule = StopRule::kExhausted;
  }
  return outcome;
}

Corrector::Corrector(nn::Sequential& model, CorrectorConfig config)
    : model_(&model), config_(config), rng_(config.seed) {
  // Touch the process-wide stats block so the dcn_corrector_* metrics
  // family is registered before the first vote (scrapes see zeros, not a
  // missing family).
  (void)corrector_stats();
}

void Corrector::resolve_num_classes(const Tensor& x) {
  if (num_classes_ != 0) return;
  std::vector<std::size_t> dims{1};
  for (std::size_t d : x.shape().dims()) dims.push_back(d);
  const Shape out = model_->output_shape(Shape(dims));
  if (out.rank() != 2) {
    throw std::logic_error("Corrector: model output is not [N, k]");
  }
  num_classes_ = out.dim(1);
}

VoteOutcome Corrector::full_vote(const Tensor& x) {
  // Eager generation + single-chunk vote: the seed-exact path the golden
  // fixture pins. stop_delta 0 with one chunk means no boundary is ever
  // checked, so all m samples are classified.
  const Tensor batch = [&] {
    DCN_TRACE_SPAN_ARG("corrector.sample_region", "core", "samples",
                       config_.samples);
    return sample_region_batch(x, config_.samples, config_.radius, rng_,
                               config_.clip_to_box);
  }();
  DCN_TRACE_SPAN_ARG("corrector.classify_batch", "core", "samples",
                     config_.samples);
  return chunked_vote(*model_, batch, num_classes_, {config_.samples},
                      /*stop_delta=*/0.0);
}

std::vector<VoteOutcome> Corrector::joint_early_exit_vote(
    const std::vector<const Tensor*>& xs, const std::vector<long>& hints) {
  const std::size_t m = config_.samples;
  const std::size_t k = xs.size();
  const std::size_t d = xs.front()->size();
  for (const Tensor* x : xs) {
    if (x->size() != d) {
      throw std::invalid_argument(
          "Corrector::vote_many: inputs must share one shape");
    }
  }
  if (skip_ == nullptr || skip_->stride() != d) skip_ = &shared_rng_skip(d);

  // Position a generator at the start of each row's m*d-draw segment, then
  // jump the master stream past all k segments. Row j's samples come from
  // the same draws as a sequential full vote would use, and the stream ends
  // at the same state, no matter how many samples each row consumes or how
  // the rows are batched — the batching-invariance contract.
  std::vector<Rng> seg;
  seg.reserve(k);
  seg.push_back(rng_);
  for (std::size_t j = 1; j < k; ++j) {
    seg.push_back(seg.back());
    skip_->skip(seg.back(), m);
  }
  rng_ = seg.back();
  skip_->skip(rng_, m);

  std::vector<VoteOutcome> out(k);
  for (auto& o : out) o.votes.assign(num_classes_, 0);
  std::vector<std::size_t> active(k);
  for (std::size_t j = 0; j < k; ++j) active[j] = j;
  std::size_t used = 0;
  for (std::size_t chunk :
       normalize_schedule(config_.schedule, config_.samples)) {
    if (active.empty() || used >= m) break;
    const std::size_t take = std::min(chunk, m - used);
    if (take == 0) continue;

    // One concatenated [active * take, d...] batch per chunk: generation is
    // lazy (only still-active rows draw), classification is one
    // classify_batch over all of them.
    std::vector<std::size_t> dims{active.size() * take};
    for (std::size_t dd : xs.front()->shape().dims()) dims.push_back(dd);
    Tensor batch{Shape(dims)};
    {
      DCN_TRACE_SPAN_ARG("corrector.sample_region", "core", "samples",
                         active.size() * take);
      float* dst = batch.data().data();
      for (std::size_t i = 0; i < active.size(); ++i) {
        sample_region_into(*xs[active[i]], take, config_.radius,
                           seg[active[i]], config_.clip_to_box,
                           dst + i * take * d);
      }
    }
    const std::vector<std::size_t> labels = [&] {
      DCN_TRACE_SPAN_ARG("corrector.classify_batch", "core", "samples",
                         batch.dim(0));
      return model_->classify_batch(batch);
    }();

    used += take;
    std::vector<std::size_t> still;
    still.reserve(active.size());
    for (std::size_t i = 0; i < active.size(); ++i) {
      const std::size_t j = active[i];
      VoteOutcome& o = out[j];
      for (std::size_t s = 0; s < take; ++s) {
        const std::size_t label = labels[i * take + s];
        if (label >= o.votes.size()) {
          throw std::logic_error("Corrector::vote_many: label out of range");
        }
        ++o.votes[label];
      }
      o.samples_used = used;
      ++o.chunks_used;
      if (used >= m) continue;
      const StopRule rule =
          vote_decided_hinted(o.votes, used, m - used, config_.stop_delta,
                              hints[j], config_.hint_min_lead);
      if (rule != StopRule::kNone) {
        o.exited_early = true;
        o.stop_rule = rule;
        o.hint_confirmed =
            hints[j] >= 0 &&
            o.winner() == static_cast<std::size_t>(hints[j]);
      } else {
        still.push_back(j);
      }
    }
    active = std::move(still);
  }
  for (auto& o : out) {
    if (!o.exited_early) o.stop_rule = StopRule::kExhausted;
  }
  return out;
}

std::vector<VoteOutcome> Corrector::vote_many(
    const std::vector<const Tensor*>& xs, const std::vector<long>& hints) {
  if (xs.size() != hints.size()) {
    throw std::invalid_argument(
        "Corrector::vote_many: xs and hints sizes differ");
  }
  if (xs.empty()) return {};
  resolve_num_classes(*xs.front());
  std::vector<VoteOutcome> out;
  if (config_.samples == 0) {
    out.assign(xs.size(), VoteOutcome{});
    for (auto& o : out) o.votes.assign(num_classes_, 0);
  } else if (config_.mode == CorrectorMode::kFull) {
    // Full mode ignores hints and votes row by row — bit-exact with the
    // original sequential loop for any interleaving of calls.
    out.reserve(xs.size());
    for (const Tensor* x : xs) out.push_back(full_vote(*x));
  } else {
    out = joint_early_exit_vote(xs, hints);
  }
  DCN_TRACE_SPAN("corrector.vote", "core");
  if (config_.samples > 0) {
    // Segment accounting: row j of this call consumed the j-th segment after
    // the stream position at entry, in every mode (full votes draw their
    // whole segment; early exits jump over the tail). Pure bookkeeping — the
    // stream itself already advanced during the vote.
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j].segment_index = segments_consumed_ + j;
    }
    segments_consumed_ += out.size();
    for (const auto& o : out) {
      corrector_stats().record_vote(o.samples_used, config_.samples);
    }
  }
  last_outcome_ = out.back();
  return out;
}

VoteOutcome Corrector::vote_one(const Tensor& x, long hint) {
  return vote_many({&x}, {hint}).front();
}

std::vector<std::size_t> Corrector::vote_histogram(const Tensor& x) {
  return vote_one(x).votes;
}

std::size_t Corrector::correct(const Tensor& x) {
  const auto votes = vote_histogram(x);
  return static_cast<std::size_t>(
      std::max_element(votes.begin(), votes.end()) - votes.begin());
}

}  // namespace dcn::core
