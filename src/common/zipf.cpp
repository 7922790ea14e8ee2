#include "common/zipf.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace at::common {

ZipfDistribution::ZipfDistribution(std::size_t n, double s) : s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be >= 1");
  if (s < 0.0) throw std::invalid_argument("ZipfDistribution: s must be >= 0");
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("ZipfDistribution: n exceeds 2^32 - 1");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  const double total = acc;
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding shortfall
  guide_.resize(n);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double cut = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[k] < cut) ++k;
    guide_[j] = static_cast<std::uint32_t>(k);
  }
}

std::size_t ZipfDistribution::rank_for(double u) const {
  const std::size_t n = cdf_.size();
  // u * n may round across a bucket edge; the two walks below make the
  // result exactly lower_bound(cdf_, u) from any start.
  std::size_t k =
      guide_[std::min(static_cast<std::size_t>(u * static_cast<double>(n)),
                      n - 1)];
  while (k > 0 && cdf_[k - 1] >= u) --k;
  while (cdf_[k] < u) ++k;  // terminates: cdf_.back() == 1 >= u
  return k;
}

double ZipfDistribution::pmf(std::size_t k) const {
  if (k >= cdf_.size()) return 0.0;
  if (k == 0) return cdf_[0];
  return cdf_[k] - cdf_[k - 1];
}

}  // namespace at::common
