#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank ceil(q * n), clamped to [1, n].
std::uint64_t nearest_rank(std::uint64_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::uint64_t>(static_cast<std::uint64_t>(std::max(r, 1.0)),
                                   1, n);
}

}  // namespace

double percentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), q) - 1];
}

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

LatencySummary summarize(std::vector<double>& samples) {
  LatencySummary out;
  out.count = samples.size();
  out.p50 = percentile(samples, 0.50);
  out.p99 = percentile(samples, 0.99);
  return out;
}

double loglog_slope(const std::vector<std::pair<double, double>>& points) {
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  double n = 0.0;
  for (const auto& [x, y] : points) {
    if (!(x > 0.0) || !(y > 0.0)) return 0.0;
    const double lx = std::log(x);
    const double ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    n += 1.0;
  }
  const double denom = n * sxx - sx * sx;
  if (n < 2.0 || std::abs(denom) < 1e-12) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

}  // namespace perfbench
