// Sample arithmetic for the benchmark: percentiles over exact samples,
// medians and the log-log scaling fit. Everything here
// works on raw values, never on histogram buckets.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (sorted in place): the smallest
/// value with at least q * n samples at or below it. q in (0, 1].
/// Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double>& samples, double q);

/// Samples strictly above the nearest-rank percentile q of n samples —
/// how much data the tail estimate rests on.
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double q);

/// Median (nearest-rank p50) of a copy of `values`.
[[nodiscard]] double median(std::vector<double> values);

/// Exact-sample latency summary.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t count = 0;
};

/// Summarizes `samples` (sorted in place).
[[nodiscard]] LatencySummary summarize(std::vector<double>& samples);

/// Least-squares slope of log(y) against log(x): the exponent k of a
/// y ~ c * x^k fit. Needs >= 2 points with positive coordinates and
/// distinct x; returns 0 otherwise.
[[nodiscard]] double loglog_slope(
    const std::vector<std::pair<double, double>>& points);

}  // namespace perfbench
