// Order statistics over repeated measurements: the median each reported
// metric is taken as, and the quartiles printed beside it. quartiles() uses
// the same "exclusive" interpolation as Python's statistics.quantiles(values,
// n=4), so they agree with spread.py and any external re-analysis.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for an even count). Throws on an
/// empty input: a metric with no samples is a driver bug, not a zero.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First, second and third quartile, Python's default (exclusive) method.
/// Needs at least two samples, like statistics.quantiles.
inline std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need >= 2 samples");
  std::sort(v.begin(), v.end());
  const auto n = static_cast<long>(v.size());
  const long m = n + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

}  // namespace perfbench
