#include "loadbench/src/fixture.h"

#include <optional>
#include <set>
#include <utility>

#include "common/rng.h"

namespace loadbench {

using namespace at;

workload::CorpusConfig corpus_config() {
  workload::CorpusConfig c;
  c.num_components = 16;
  c.docs_per_component = 2000;
  c.vocab_size = 8000;
  c.num_topics = 48;
  c.topic_vocab = 100;
  c.seed = 20160816;
  return c;
}

workload::RatingConfig rating_config() {
  workload::RatingConfig c;
  c.num_components = 4;
  c.users_per_component = 500;
  c.num_items = 300;
  c.num_clusters = 20;
  c.seed = 20160816;
  return c;
}

synopsis::BuildConfig build_config() {
  synopsis::BuildConfig c;
  c.svd.rank = 3;
  c.svd.epochs_per_dim = 30;
  c.size_ratio = 12.0;
  return c;
}

Fixture build_fixture(common::ShardedExecutor& exec) {
  Fixture fx;
  const auto ccfg = corpus_config();
  auto wl = workload::CorpusGen(ccfg).generate(16);
  const std::size_t n = wl.shards.size();
  std::vector<std::optional<search::SearchComponent>> built(n);
  std::vector<std::uint64_t> bases(n);
  std::uint64_t base = 0;
  for (std::size_t c = 0; c < n; ++c) {
    bases[c] = base;
    base += wl.shards[c].rows();
  }
  const auto bcfg = build_config();
  exec.for_each_shard(n, [&](std::size_t c) {
    built[c].emplace(std::move(wl.shards[c]), bases[c], bcfg,
                     search::ScorerParams{}, &exec.group(exec.home_group(c)));
  });
  std::vector<search::SearchComponent> comps;
  comps.reserve(n);
  for (auto& b : built) comps.push_back(std::move(*b));
  fx.search = std::make_unique<search::SearchService>(std::move(comps), 10);
  fx.search->set_executor(&exec);
  fx.calibration = std::move(wl.queries);

  const auto rcfg = rating_config();
  auto rwl = workload::RatingWorkloadGen(rcfg).generate(1, 1);
  const std::size_t rn = rwl.subsets.size();
  std::vector<std::optional<reco::RecommenderComponent>> rbuilt(rn);
  exec.for_each_shard(rn, [&](std::size_t c) {
    rbuilt[c].emplace(std::move(rwl.subsets[c]), bcfg,
                      &exec.group(exec.home_group(c)));
  });
  std::vector<reco::RecommenderComponent> rcomps;
  rcomps.reserve(rn);
  for (auto& b : rbuilt) rcomps.push_back(std::move(*b));
  fx.reco = std::make_unique<reco::CfService>(std::move(rcomps),
                                              rcfg.min_rating, rcfg.max_rating);
  fx.reco->set_executor(&exec);
  return fx;
}

synopsis::UpdateBatch synthesize_update(const search::SearchSnapshot& s,
                                        const server::protocol::Request& r) {
  const std::size_t rows = s.num_docs();
  const std::size_t cols = s.docs().cols();
  common::Rng rng(r.update_seed);
  const auto make_row = [&rng, cols]() {
    synopsis::SparseVector row;
    std::set<std::uint32_t> terms;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_index(8));
    while (terms.size() < n)
      terms.insert(static_cast<std::uint32_t>(rng.uniform_index(cols)));
    for (const std::uint32_t t : terms)
      row.emplace_back(t, 1.0 + static_cast<double>(rng.uniform_index(5)));
    return row;
  };
  synopsis::UpdateBatch batch;
  for (std::uint32_t i = 0; i < r.update_adds; ++i)
    batch.added.push_back(make_row());
  for (std::uint32_t i = 0; i < r.update_changes; ++i)
    batch.changed.emplace_back(
        static_cast<std::uint32_t>(rng.uniform_index(rows)), make_row());
  return batch;
}

}  // namespace loadbench
