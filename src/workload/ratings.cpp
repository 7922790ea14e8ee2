#include "workload/ratings.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace at::workload {

RatingWorkloadGen::RatingWorkloadGen(RatingConfig config)
    : config_(config),
      item_popularity_(config.num_items, config.item_popularity_skew) {
  if (config_.num_clusters == 0 || config_.num_items == 0)
    throw std::invalid_argument("RatingWorkloadGen: empty config");
  common::Rng rng(config_.seed);
  item_quality_.resize(config_.num_items);
  const double mid = 0.5 * (config_.min_rating + config_.max_rating);
  for (auto& q : item_quality_) q = rng.normal(mid, 0.5);
  affinity_.resize(config_.num_clusters);
  for (auto& row : affinity_) {
    row.resize(config_.num_items);
    for (auto& a : row) a = rng.normal(0.0, config_.cluster_affinity_stddev);
  }
}

double RatingWorkloadGen::rating_of(std::size_t cluster, std::uint32_t item,
                                    common::Rng& rng) const {
  double r = item_quality_[item] + affinity_[cluster][item] +
             rng.normal(0.0, config_.noise_stddev);
  if (config_.integer_ratings) r = std::round(r);
  return std::clamp(r, config_.min_rating, config_.max_rating);
}

synopsis::SparseVector RatingWorkloadGen::make_user(
    std::size_t cluster, common::Rng& rng,
    std::vector<std::uint8_t>& chosen) const {
  const std::size_t count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config_.ratings_per_user_min),
      static_cast<std::int64_t>(config_.ratings_per_user_max)));
  synopsis::SparseVector ratings;
  ratings.reserve(count);
  std::size_t guard = 0;
  while (ratings.size() < count && guard < count * 30) {
    ++guard;
    const auto item = static_cast<std::uint32_t>(item_popularity_(rng));
    if (chosen[item]) continue;
    chosen[item] = 1;
    ratings.emplace_back(item, rating_of(cluster, item, rng));
  }
  for (const auto& [item, r] : ratings) chosen[item] = 0;
  synopsis::normalize(ratings);
  return ratings;
}

synopsis::SparseVector RatingWorkloadGen::sample_user(
    common::Rng& rng) const {
  const std::size_t cluster = rng.uniform_index(config_.num_clusters);
  std::vector<std::uint8_t> chosen(config_.num_items, 0);
  return make_user(cluster, rng, chosen);
}

RatingWorkload RatingWorkloadGen::generate(std::size_t num_active_users,
                                           std::size_t targets_per_user) const {
  common::Rng rng(config_.seed ^ 0xa11ceULL);
  std::vector<std::uint8_t> chosen(config_.num_items, 0);  // reused per user
  RatingWorkload out;
  out.subsets.reserve(config_.num_components);
  for (std::size_t c = 0; c < config_.num_components; ++c) {
    synopsis::SparseRows subset(config_.num_items);
    for (std::size_t u = 0; u < config_.users_per_component; ++u) {
      const std::size_t cluster = rng.uniform_index(config_.num_clusters);
      subset.add_row(make_user(cluster, rng, chosen));
    }
    out.subsets.push_back(std::move(subset));
  }

  // Active users: held out of the subsets; 80% of each one's ratings are
  // the request context, targets come from the withheld 20%.
  for (std::size_t a = 0; a < num_active_users; ++a) {
    const std::size_t cluster = rng.uniform_index(config_.num_clusters);
    synopsis::SparseVector full = make_user(cluster, rng, chosen);
    if (full.size() < 5) continue;
    // Shuffle indices, withhold the last 20%.
    std::vector<std::size_t> idx(full.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    for (std::size_t i = idx.size(); i > 1; --i) {
      std::swap(idx[i - 1], idx[rng.uniform_index(i)]);
    }
    const std::size_t held = std::max<std::size_t>(1, full.size() / 5);
    synopsis::SparseVector context;
    std::vector<std::pair<std::uint32_t, double>> targets;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (i < idx.size() - held) {
        context.push_back(full[idx[i]]);
      } else {
        targets.emplace_back(full[idx[i]].first, full[idx[i]].second);
      }
    }
    const std::size_t take = std::min(targets_per_user, targets.size());
    for (std::size_t t = 0; t < take; ++t) {
      out.requests.push_back(
          reco::CfRequest::make(context, targets[t].first));
      out.actuals.push_back(targets[t].second);
    }
  }
  return out;
}

}  // namespace at::workload
