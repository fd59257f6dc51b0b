// Metric values and order statistics shared by the harness and the
// trace analysis.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace perfbench
