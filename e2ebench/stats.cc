#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  const long long bp = std::llround(std::clamp(p, 0.0, 1.0) * 10000.0);
  const size_t rank = (n * static_cast<size_t>(bp) + 9999) / 10000;
  return std::clamp<size_t>(rank, 1, n);
}

size_t SamplesBeyond(size_t n, double p) { return n - NearestRank(n, p); }

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  const size_t index = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index), samples.end());
  return samples[index];
}

std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (SamplesBeyond(samples.size(), p) < kMinSamplesBeyond) return std::nullopt;
  return Percentile(std::move(samples), p);
}

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace e2ebench
