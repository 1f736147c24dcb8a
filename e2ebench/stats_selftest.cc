// Self-test of the benchmark's statistics helper: the nearest-rank
// percentile rule and the refusal to report a tail percentile with fewer
// than ten samples beyond it. Exits non-zero on the first failed check.

#include <cstdio>
#include <optional>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "stats_selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  // Descending on purpose: the helper must not assume sorted input.
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

}  // namespace

int main() {
  using e2ebench::Median;
  using e2ebench::NearestRank;
  using e2ebench::Percentile;
  using e2ebench::SamplesBeyond;
  using e2ebench::TailPercentile;

  // Nearest rank is ceil(p * n), exact in basis points.
  Expect(NearestRank(1000, 0.99) == 990, "p99 of 1000 is rank 990");
  Expect(NearestRank(100, 0.5) == 50, "p50 of 100 is rank 50");
  Expect(NearestRank(101, 0.5) == 51, "p50 of 101 is rank 51");
  Expect(NearestRank(10, 0.99) == 10, "p99 of 10 is the maximum");
  Expect(NearestRank(7, 0.0) == 1, "p0 clamps to the minimum");
  Expect(NearestRank(0, 0.5) == 0, "no rank without samples");

  Expect(Percentile(OneTo(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(Percentile(OneTo(5), 0.5) == 3.0, "p50 of 1..5 is 3");
  Expect(Percentile(OneTo(4), 0.5) == 2.0, "nearest-rank p50 of 1..4 is 2");
  Expect(Percentile(OneTo(4), 1.0) == 4.0, "p100 is the maximum");
  Expect(!Percentile({}, 0.5).has_value(), "no percentile of nothing");

  // Tail refusal: p99 needs at least 10 samples beyond it, i.e. n >= 1000.
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  Expect(TailPercentile(OneTo(1000), 0.99) == 990.0, "p99 reported from 1000 samples");
  Expect(!TailPercentile(OneTo(999), 0.99).has_value(), "p99 refused from 999 samples");
  Expect(!TailPercentile(OneTo(50), 0.99).has_value(), "p99 refused from 50 samples");
  Expect(TailPercentile(OneTo(20), 0.5) == 10.0, "p50 of 20 has 10 beyond it");
  Expect(!TailPercentile(OneTo(19), 0.5).has_value(), "p50 of 19 has 9 beyond it");

  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median is the middle sample");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle two");
  Expect(!Median({}).has_value(), "no median of nothing");

  if (failures == 0) std::printf("stats_selftest ok\n");
  return failures == 0 ? 0 : 1;
}
