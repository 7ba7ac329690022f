// Sample statistics and arrival schedules for the serving benchmark.
//
// Percentiles are computed from raw samples only (never from the server's
// log2-bucketed LatencyHistogram), by nearest rank, and a percentile is
// reported only when at least kMinBeyond samples lie strictly after its
// rank: a p99 over 300 samples would be set by three requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace servebench {

/// Samples that must lie beyond a percentile's rank for it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile `p` in (0, 1] of `samples`, or nullopt when fewer
/// than kMinBeyond samples lie beyond the rank (including an empty input).
/// The rank is ceil(p * n); the samples beyond it number n - rank.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Median of `samples` (the mean of the middle two for an even count; 0 for
/// an empty input).
double median(std::vector<double> samples);

/// Open-loop Poisson arrivals over [0, horizon_s): round(rate * horizon)
/// intended send offsets, in seconds, drawn uniformly from a dcn::Rng seeded
/// with `seed` and sorted. That is a Poisson process conditioned on its
/// count, so every run offers exactly the nominal load and only the arrival
/// pattern varies with the seed. The same arguments give the same schedule
/// bit for bit.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double horizon_s);

}  // namespace servebench
