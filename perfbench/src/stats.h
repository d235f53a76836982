#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Fewest samples a statement kind needs before it reports a tail: below
/// this the highest percentile with ten samples beyond it sits too close to
/// the median to say anything about the tail.
inline constexpr size_t kMinTailSamples = 40;
inline constexpr size_t kSamplesBeyondTail = 10;
/// Highest percentile a tail reports. Above p90 a sub-millisecond
/// statement's tail follows how often the host stalls one of the two
/// worker threads: refresh-mixed's 0.6-ms Q6 read p95 0.8-3.1 ms and p99
/// 3.0-9.2 ms over five runs of one build, its p90 0.8-1.7 ms.
inline constexpr double kMaxTailQuantile = 0.90;

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of `v`, up to p90, that has at least ten samples
/// above it: the value with exactly ten larger samples, or the p90 sample
/// once more than ten lie above that. Kinds with fewer than
/// kMinTailSamples samples have no tail; they report their median, so a
/// tail figure is never a near-median dressed up as one. `percentile`
/// receives the share of samples at or below the reported value (100 * the
/// rank), or 50 when the median stands in.
inline double TailWithTenBeyond(std::vector<double> v,
                                double* percentile = nullptr) {
  if (v.size() < kMinTailSamples) {
    if (percentile != nullptr) *percentile = 50;
    return Median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t idx = std::min(
      n - 1 - kSamplesBeyondTail,
      static_cast<size_t>(kMaxTailQuantile * static_cast<double>(n - 1)));
  if (percentile != nullptr) {
    *percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  }
  return v[idx];
}

/// Geometric mean of positive values (TPC-H Power-style: every kind weighs
/// the same whatever its cost); 0 when empty or any value is not positive.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
