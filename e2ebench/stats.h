#ifndef FLEXVIS_E2EBENCH_STATS_H_
#define FLEXVIS_E2EBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace e2ebench {

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it (so p99 needs >= 1000 samples).
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 1) among `n` samples:
/// ceil(p * n), computed in integer basis points so that 0.99 * 1000 is rank
/// 990 exactly, not 991 after a floating-point round-up.
size_t NearestRank(size_t n, double p);

/// Samples strictly above the nearest-rank percentile: n - NearestRank(n, p).
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank percentile: the NearestRank(n, p)-th smallest sample.
/// nullopt for an empty sample set.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Percentile(samples, p), refused (nullopt) unless at least
/// kMinSamplesBeyond samples lie beyond it.
std::optional<double> TailPercentile(std::vector<double> samples, double p);

/// Median: the middle sample, or the mean of the two middle samples for an
/// even count (the rule Python's statistics.median uses). nullopt when empty.
std::optional<double> Median(std::vector<double> samples);

}  // namespace e2ebench

#endif  // FLEXVIS_E2EBENCH_STATS_H_
