#include "services/search/component.h"

#include <string>

#include "core/algorithm1.h"
#include "synopsis/serialize.h"

namespace at::search {

// ---------------------------------------------------------------------------
// SearchSnapshot

SearchSnapshot::Shard::Shard(synopsis::SparseRows docs_in,
                             std::uint64_t doc_id_base_in,
                             synopsis::BuildConfig config_in,
                             ScorerParams scorer_in,
                             synopsis::SynopsisStructure structure_in,
                             synopsis::Synopsis synopsis_in)
    : docs(std::move(docs_in)),
      doc_id_base(doc_id_base_in),
      config(config_in),
      scorer(scorer_in),
      structure(std::move(structure_in)),
      synopsis(std::move(synopsis_in)),
      index(docs, scorer) {
  doc_group.assign(docs.rows(), 0);
  const auto& groups = structure.index.groups();
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g].members) doc_group[member] = g;
  }
  agg_length.assign(synopsis.size(), 0.0);
  for (std::size_t g = 0; g < synopsis.size(); ++g) {
    double len = 0.0;
    for (const auto& [term, count] : synopsis.points[g].features) len += count;
    agg_length[g] = len;
  }
}

SearchSnapshot::SearchSnapshot(
    synopsis::SparseRows docs, std::uint64_t doc_id_base,
    synopsis::BuildConfig config, ScorerParams scorer,
    synopsis::SynopsisStructure structure, synopsis::Synopsis synopsis,
    std::shared_ptr<const std::vector<double>> global_idf)
    : SearchSnapshot(std::make_shared<const Shard>(
                         std::move(docs), doc_id_base, config, scorer,
                         std::move(structure), std::move(synopsis)),
                     std::move(global_idf)) {}

SearchSnapshot::SearchSnapshot(
    std::shared_ptr<const Shard> shard,
    std::shared_ptr<const std::vector<double>> global_idf)
    : shard_(std::move(shard)), global_idf_(std::move(global_idf)) {}

std::vector<std::uint32_t> SearchSnapshot::doc_frequencies() const {
  std::vector<std::uint32_t> dfs(shard_->docs.cols(), 0);
  for (std::uint32_t t = 0; t < dfs.size(); ++t)
    dfs[t] = shard_->index.doc_frequency(t);
  return dfs;
}

std::vector<std::uint32_t> SearchSnapshot::group_sizes() const {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(shard_->structure.index.size());
  for (const auto& g : shard_->structure.index.groups())
    sizes.push_back(static_cast<std::uint32_t>(g.members.size()));
  return sizes;
}

SearchComponentWork SearchSnapshot::analyze(
    const SearchRequest& request) const {
  const Shard& s = *shard_;
  SearchComponentWork work;
  const std::size_t m = s.synopsis.size();
  work.correlations.resize(m, 0.0);
  work.scored_by_group.resize(m);

  // Synopsis pass: score each merged page against the query; a higher
  // similarity means the group's member pages are, on average, more likely
  // to contain the actual top pages.
  for (std::size_t g = 0; g < m; ++g) {
    work.correlations[g] =
        s.index.score_counts(request.terms, s.synopsis.points[g].features,
                             s.agg_length[g], global_idf_.get());
  }

  // Exact pass, decomposed by group.
  std::vector<ScoredDoc> scored;
  s.index.score_query(request.terms, s.doc_id_base, scored, global_idf_.get());
  for (const auto& d : scored) {
    const auto local = static_cast<std::uint32_t>(d.doc - s.doc_id_base);
    work.scored_by_group[s.doc_group[local]].push_back(d);
  }
  return work;
}

std::vector<ScoredDoc> SearchSnapshot::exact_topk(const SearchRequest& request,
                                                  std::size_t k) const {
  return shard_->index.topk(request.terms, shard_->doc_id_base, k,
                            global_idf_.get());
}

std::vector<ScoredDoc> SearchSnapshot::synopsis_topk(
    const SearchRequest& request, std::size_t k) const {
  const Shard& s = *shard_;
  const std::size_t m = s.synopsis.size();
  std::vector<double> corr(m, 0.0);
  for (std::size_t g = 0; g < m; ++g) {
    corr[g] = s.index.score_counts(request.terms, s.synopsis.points[g].features,
                                   s.agg_length[g], global_idf_.get());
  }
  std::vector<ScoredDoc> out;
  for (const std::size_t g : core::rank_by_correlation(corr)) {
    if (corr[g] <= 0.0 || out.size() >= k) break;  // no query overlap left
    for (auto member : s.structure.index.groups()[g].members) {
      if (out.size() >= k) break;
      out.push_back(ScoredDoc{corr[g], s.doc_id_base + member});
    }
  }
  return out;
}

std::vector<std::uint64_t> SearchSnapshot::group_member_docs(
    std::size_t g) const {
  const auto& members = shard_->structure.index.groups().at(g).members;
  std::vector<std::uint64_t> out;
  out.reserve(members.size());
  for (auto m : members) out.push_back(shard_->doc_id_base + m);
  return out;
}

void SearchSnapshot::save(std::ostream& os, common::Codec codec) const {
  const Shard& s = *shard_;
  common::ArtifactWriter w(os, "SCMP", 1);
  common::ChunkWriter conf;
  conf.u64(s.doc_id_base);
  conf.u64(s.config.svd.rank);
  conf.u64(s.config.svd.epochs_per_dim);
  conf.f64(s.config.svd.learning_rate);
  conf.f64(s.config.svd.regularization);
  conf.f64(s.config.size_ratio);
  conf.u64(s.config.min_groups);
  conf.u8(s.scorer.scorer == Scorer::kBm25 ? 1 : 0);
  conf.f64(s.scorer.bm25_k1);
  conf.f64(s.scorer.bm25_b);
  w.chunk("CONF", conf);
  synopsis::save(os, s.docs);
  synopsis::save(os, s.structure, codec);
  synopsis::save(os, s.synopsis);
  w.finish();
}

std::unique_ptr<const SearchSnapshot> SearchSnapshot::with_global_idf(
    std::shared_ptr<const std::vector<double>> idf) const {
  return std::unique_ptr<const SearchSnapshot>(
      new SearchSnapshot(shard_, std::move(idf)));
}

std::unique_ptr<const SearchSnapshot> SearchSnapshot::with_update(
    const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
    synopsis::UpdateReport& report) const {
  const Shard& s = *shard_;
  synopsis::SparseRows docs(s.docs, batch.entries());
  synopsis::SynopsisStructure structure = s.structure.clone();
  synopsis::Synopsis syn = s.synopsis;
  report = synopsis::SynopsisUpdater(s.config).apply(
      structure, docs, syn, batch, synopsis::AggregationKind::kMerge, pool);
  return std::make_unique<const SearchSnapshot>(
      std::move(docs), s.doc_id_base, s.config, s.scorer, std::move(structure),
      std::move(syn), global_idf_);
}

// ---------------------------------------------------------------------------
// SearchComponent

/// The non-movable anchor behind the movable facade: the writer mutex and
/// the epoch slot readers pin through. Held via unique_ptr so
/// SearchComponent still fits in std::vector.
struct SearchComponent::Core {
  common::Mutex writer_mutex;
  common::ThreadPool* pool AT_GUARDED_BY(writer_mutex) = nullptr;
  DeltaSink delta_sink AT_GUARDED_BY(writer_mutex);
  common::EpochSlot<SearchSnapshot> epoch;
};

SearchComponent::SearchComponent(
    std::unique_ptr<const SearchSnapshot> initial, common::ThreadPool* pool)
    : core_(std::make_unique<Core>()) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
  core_->epoch.publish(std::move(initial));
}

SearchComponent::SearchComponent(synopsis::SparseRows docs,
                                 std::uint64_t doc_id_base,
                                 const synopsis::BuildConfig& config,
                                 ScorerParams scorer, common::ThreadPool* pool)
    : core_(std::make_unique<Core>()) {
  synopsis::SynopsisStructure structure =
      synopsis::SynopsisBuilder(config).build(docs);
  synopsis::Synopsis syn = synopsis::aggregate_all(
      docs, structure.index, synopsis::AggregationKind::kMerge, pool);
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
  core_->epoch.publish(std::make_unique<const SearchSnapshot>(
      std::move(docs), doc_id_base, config, scorer, std::move(structure),
      std::move(syn), nullptr));
}

SearchComponent::~SearchComponent() = default;
SearchComponent::SearchComponent(SearchComponent&&) noexcept = default;
SearchComponent& SearchComponent::operator=(SearchComponent&&) noexcept =
    default;

void SearchComponent::set_pool(common::ThreadPool* pool) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
}

std::shared_ptr<const SearchSnapshot> SearchComponent::snapshot() const {
  return core_->epoch.acquire();
}

std::pair<std::shared_ptr<const SearchSnapshot>, std::uint64_t>
SearchComponent::snapshot_versioned() const {
  return core_->epoch.acquire_versioned();
}

std::uint64_t SearchComponent::epoch_version() const {
  return core_->epoch.version();
}

common::EpochStats SearchComponent::epoch_stats() const {
  return core_->epoch.stats();
}

void SearchComponent::rebase_epoch_version(std::uint64_t v) {
  // The writer mutex serializes the rebase against concurrent update()
  // publishes, so the version can never move between their pre-publish
  // read and the publish itself.
  common::MutexLock lock(core_->writer_mutex);
  core_->epoch.rebase_version(v);
}

void SearchComponent::set_delta_sink(DeltaSink sink) {
  common::MutexLock lock(core_->writer_mutex);
  core_->delta_sink = std::move(sink);
}

const synopsis::SynopsisStructure& SearchComponent::structure() const {
  return snapshot()->structure();
}

const synopsis::Synopsis& SearchComponent::synopsis() const {
  return snapshot()->synopsis();
}

const InvertedIndex& SearchComponent::index() const {
  return snapshot()->index();
}

void SearchComponent::set_global_idf(
    std::shared_ptr<const std::vector<double>> idf) {
  common::MutexLock lock(core_->writer_mutex);
  core_->epoch.publish(core_->epoch.acquire()->with_global_idf(std::move(idf)));
}

synopsis::UpdateReport SearchComponent::update(
    const synopsis::UpdateBatch& batch) {
  common::MutexLock lock(core_->writer_mutex);
  const std::uint64_t from = core_->epoch.version();
  // Retrain/fold-in runs on a private copy of the published state: readers
  // keep scanning the published epoch and never observe intermediate
  // state, and a failed publish leaves the component exactly as it was.
  synopsis::UpdateReport report;
  core_->epoch.publish(
      core_->epoch.acquire()->with_update(batch, core_->pool, report));
  if (core_->delta_sink) {
    core_->delta_sink(batch, from, core_->epoch.version());
  }
  return report;
}

void SearchComponent::adopt(SearchComponent&& fresh) {
  // `fresh` is a private temporary, so pinning its snapshot needs no lock
  // of ours; only this component's writer mutex is ever held.
  const std::shared_ptr<const SearchSnapshot> incoming = fresh.snapshot();
  fresh.core_.reset();
  common::MutexLock lock(core_->writer_mutex);
  core_->epoch.publish(
      incoming->with_global_idf(core_->epoch.acquire()->global_idf()));
}

SearchComponent SearchComponent::load(std::istream& is) try {
  common::ArtifactReader r(is, "SCMP");
  if (r.version() != 1)
    throw common::ArtifactError("SearchComponent::load: unsupported version");
  common::ChunkReader conf = r.chunk("CONF");
  const auto doc_id_base = conf.u64();
  synopsis::BuildConfig config;
  config.svd.rank = conf.u64();
  config.svd.epochs_per_dim = conf.u64();
  config.svd.learning_rate = conf.f64();
  config.svd.regularization = conf.f64();
  config.size_ratio = conf.f64();
  config.min_groups = conf.u64();
  ScorerParams scorer;
  scorer.scorer = conf.u8() != 0 ? Scorer::kBm25 : Scorer::kTfIdf;
  scorer.bm25_k1 = conf.f64();
  scorer.bm25_b = conf.f64();
  conf.expect_consumed();
  auto docs = synopsis::load_sparse_rows(is);
  auto structure = synopsis::load_structure(is);
  auto synopsis = synopsis::load_synopsis(is);
  r.finish();
  return SearchComponent(
      std::make_unique<const SearchSnapshot>(
          std::move(docs), doc_id_base, config, scorer, std::move(structure),
          std::move(synopsis), nullptr),
      nullptr);
} catch (const common::ArtifactError&) {
  throw;
} catch (const std::exception& e) {
  // Every load failure — truncated stream, decoder error mid-chunk —
  // surfaces as the artifact layer's structured error.
  throw common::ArtifactError(std::string("SearchComponent::load: ") +
                              e.what());
}

}  // namespace at::search
