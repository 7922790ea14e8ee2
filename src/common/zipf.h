// Zipf-distributed integer sampling.
//
// Used to synthesize realistic skew: item popularity in the rating-matrix
// generator, term frequency in the corpus generator, and query term choice
// in the query-log generator all follow (truncated) Zipf laws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace at::common {

/// Samples k in [0, n) with P(k) proportional to 1 / (k+1)^s.
///
/// Implementation: precomputed cumulative distribution plus a guide table
/// (Chen & Asau's cutpoint method) with n buckets: bucket j holds the first
/// rank whose cdf reaches j/n, so a draw u starts its scan at bucket
/// floor(u * n) and walks a few ranks. The result is exactly
/// std::lower_bound(cdf, u), the same rank the plain binary search picks,
/// in O(1) expected steps. Construction is O(n); n up to a few million is
/// fine for workload generation (construction happens once per generator).
class ZipfDistribution {
 public:
  /// n: support size (must be >= 1); s: skew exponent (s >= 0; s == 0 is
  /// the uniform distribution).
  ZipfDistribution(std::size_t n, double s);

  std::size_t operator()(Rng& rng) const { return sample(rng); }
  std::size_t sample(Rng& rng) const { return rank_for(rng.uniform()); }

  /// The rank a uniform draw u in [0, 1] maps to: the first k with
  /// cdf()[k] >= u, i.e. std::lower_bound(cdf(), u).
  std::size_t rank_for(double u) const;

  /// cdf()[k] = P(X <= k); the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

  /// Probability mass of rank k.
  double pmf(std::size_t k) const;

  std::size_t support_size() const { return cdf_.size(); }
  double skew() const { return s_; }

 private:
  double s_;
  std::vector<double> cdf_;  // cdf_[k] = P(X <= k); cdf_.back() == 1.
  std::vector<std::uint32_t> guide_;  // guide_[j] = lower_bound(cdf_, j/n)
};

}  // namespace at::common
