#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/random.hpp"

namespace servebench {

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("percentile: p must lie in (0, 1]");
  }
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double horizon_s) {
  if (!(rate_per_s > 0.0) || !(horizon_s > 0.0)) {
    throw std::invalid_argument(
        "poisson_schedule: rate and horizon must be positive");
  }
  dcn::Rng rng(seed);
  std::vector<double> at(
      static_cast<std::size_t>(std::llround(rate_per_s * horizon_s)));
  for (double& t : at) t = rng.uniform() * horizon_s;
  std::sort(at.begin(), at.end());
  return at;
}

}  // namespace servebench
