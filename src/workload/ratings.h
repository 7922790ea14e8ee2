// Synthetic clustered user-item rating workload (MovieLens stand-in).
//
// The paper's CF experiments use the MovieLens 10M dataset partitioned
// into per-component subsets (~4,000 users × 1,000 items × 0.27 M ratings
// each). What AccuracyTrader exploits in that data is its *cluster
// structure*: users with similar tastes exist, so aggregating similar
// users loses little information, and Pearson weights identify them. This
// generator reproduces that structure directly:
//   rating(u, i) = clamp(q_i + a_{cluster(u), i} + noise)
// where q_i is a global item-quality term and a_{k,i} a per-cluster
// affinity; items are selected with Zipf popularity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "services/recommender/cf.h"
#include "synopsis/sparse_rows.h"

namespace at::workload {

struct RatingConfig {
  std::size_t num_components = 8;
  std::size_t users_per_component = 600;
  std::size_t num_items = 400;
  std::size_t num_clusters = 24;
  std::size_t ratings_per_user_min = 30;
  std::size_t ratings_per_user_max = 80;
  double item_popularity_skew = 0.8;  // Zipf exponent
  double cluster_affinity_stddev = 1.0;
  double noise_stddev = 0.5;
  double min_rating = 1.0;
  double max_rating = 5.0;
  /// Round ratings to integer stars (MovieLens-style) when true.
  bool integer_ratings = true;
  std::uint64_t seed = 7;
};

/// A full CF evaluation workload: the per-component subsets plus a request
/// set with ground-truth ratings.
struct RatingWorkload {
  std::vector<synopsis::SparseRows> subsets;  // one per component
  std::vector<reco::CfRequest> requests;
  std::vector<double> actuals;  // true rating of each request's target
};

class RatingWorkloadGen {
 public:
  explicit RatingWorkloadGen(RatingConfig config);

  /// Generates subsets plus `num_active_users` held-out active users; for
  /// each, 80% of their ratings form the request context and up to
  /// `targets_per_user` of the remaining 20% become prediction requests
  /// (mirroring §4.2/§4.3's setup).
  RatingWorkload generate(std::size_t num_active_users,
                          std::size_t targets_per_user) const;

  /// One extra user's rating vector, drawn from a random cluster — used to
  /// synthesize update batches ("new data points") for Fig. 3.
  synopsis::SparseVector sample_user(common::Rng& rng) const;

  const RatingConfig& config() const { return config_; }

 private:
  /// `chosen` is an all-zero mask over items; it marks the user's drawn
  /// items while drawing and is all-zero again on return, so one mask
  /// serves every user of a generate() call.
  synopsis::SparseVector make_user(std::size_t cluster, common::Rng& rng,
                                   std::vector<std::uint8_t>& chosen) const;
  double rating_of(std::size_t cluster, std::uint32_t item,
                   common::Rng& rng) const;

  RatingConfig config_;
  common::ZipfDistribution item_popularity_;
  std::vector<double> item_quality_;              // q_i
  std::vector<std::vector<double>> affinity_;     // a_{k,i}
};

}  // namespace at::workload
