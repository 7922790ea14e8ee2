// One parallel component of the search service: a shard of the web-page
// corpus, its inverted index, and the synopsis of merged ("aggregated")
// pages built over it.
//
// Ownership model: each component has exactly one owner of its shard state
// — the published snapshot — behind an RCU epoch slot.
//
//   SearchSnapshot   everything a query reads — docs, synopsis, inverted
//                    index, derived arrays — frozen at publish time and
//                    held behind one shared_ptr, plus the corpus-global
//                    idf table. All methods are const and safe to call
//                    from any number of threads concurrently. Swapping
//                    the idf yields a new snapshot that shares the shard
//                    state; applying an update batch copies the state
//                    once, retrains the copy and moves it into a new
//                    snapshot.
//   SearchComponent  the facade the rest of the stack holds: queries pin
//                    the current snapshot (snapshot() / the delegating
//                    query methods), writers serialize on an internal
//                    mutex and publish through an EpochSlot. Publishing
//                    is a pointer swap: queries never block on
//                    retraining, and an epoch retires (frees) only when
//                    the last in-flight query drops its pin.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "services/search/inverted_index.h"
#include "services/search/topk.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/updater.h"

namespace at::search {

struct SearchRequest {
  std::vector<std::uint32_t> terms;  // query term ids
};

/// Per-request decomposition of one component's contribution:
///  * correlations[g] — the aggregated page g's similarity score to the
///    query (the paper's correlation estimate for text services);
///  * scored_by_group[g] — the *exactly scored* member pages of group g
///    that match the query (global doc ids).
/// Exact processing is the union over all groups; AccuracyTrader with k
/// sets processed contributes the union over the top-k ranked groups.
struct SearchComponentWork {
  std::vector<double> correlations;
  std::vector<std::vector<ScoredDoc>> scored_by_group;
};

/// Immutable published state of one search component. Every member is
/// frozen after construction, so any number of threads may query one
/// snapshot concurrently (the scan scratch inside InvertedIndex is
/// thread_local). Group indices, doc ids and correlations returned by one
/// snapshot are only meaningful against that same snapshot — pin it once
/// per request.
class SearchSnapshot {
 public:
  /// Indexes the given shard state (inverted index + derived arrays).
  SearchSnapshot(synopsis::SparseRows docs, std::uint64_t doc_id_base,
                 synopsis::BuildConfig config, ScorerParams scorer,
                 synopsis::SynopsisStructure structure,
                 synopsis::Synopsis synopsis,
                 std::shared_ptr<const std::vector<double>> global_idf);

  std::size_t num_docs() const { return shard_->docs.rows(); }
  std::size_t num_groups() const { return shard_->structure.index.size(); }
  std::uint64_t doc_id_base() const { return shard_->doc_id_base; }
  const synopsis::BuildConfig& config() const { return shard_->config; }
  const ScorerParams& scorer_params() const { return shard_->scorer; }
  const synopsis::SparseRows& docs() const { return shard_->docs; }
  const synopsis::SynopsisStructure& structure() const {
    return shard_->structure;
  }
  const synopsis::Synopsis& synopsis() const { return shard_->synopsis; }
  /// The shard's index; it holds no idf table — scoring through it
  /// directly uses the shard-local idf unless global_idf() is passed.
  const InvertedIndex& index() const { return shard_->index; }
  const std::shared_ptr<const std::vector<double>>& global_idf() const {
    return global_idf_;
  }

  /// Compressed vs raw postings footprint of this shard's inverted index.
  IndexSizeStats index_size() const { return shard_->index.size_stats(); }

  /// Per-term document frequencies (for building the corpus-global idf).
  std::vector<std::uint32_t> doc_frequencies() const;

  std::vector<std::uint32_t> group_sizes() const;

  /// Full per-request analysis (synopsis scores + exact member scores).
  SearchComponentWork analyze(const SearchRequest& request) const;

  /// Exact local top-k (all groups).
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request,
                                    std::size_t k) const;

  /// Stage-1-only local answer: scores only the aggregated synopsis pages
  /// (O(groups) work, no postings scan), then returns the member docs of
  /// the best-correlated groups, each carrying its group's correlation as
  /// the score. The cheap rung of the serving degradation ladder — scores
  /// are approximate but comparable across components (global idf).
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request,
                                       std::size_t k) const;

  /// Global doc ids of group g's members, in member order. Used for the
  /// stage-1-only fallback: when no group was processed exactly, the
  /// initial result returns members of the best-ranked aggregated pages
  /// (an approximation; individual member scores are unknown until their
  /// group is processed).
  std::vector<std::uint64_t> group_member_docs(std::size_t g) const;

  /// Persists the shard (documents + synopsis structure + aggregated
  /// synopsis + scorer) as an artifact-store snapshot (kind "SCMP"); f64
  /// columns go through `codec`, every chunk is CRC-checked, and the
  /// inverted index is rebuilt on load.
  void save(std::ostream& os,
            common::Codec codec = common::default_codec()) const;

  /// This snapshot with a different corpus-global idf table. Shares the
  /// shard state: no copy of docs, postings or synopsis.
  std::unique_ptr<const SearchSnapshot> with_global_idf(
      std::shared_ptr<const std::vector<double>> idf) const;

  /// This snapshot with `batch` applied: copies the shard state once,
  /// retrains/folds the batch into the copy, and indexes it into a new
  /// snapshot with the same idf. This snapshot is left untouched, so a
  /// caller that fails to publish the result has changed nothing.
  std::unique_ptr<const SearchSnapshot> with_update(
      const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
      synopsis::UpdateReport& report) const;

 private:
  /// The heavy per-shard state, shared by every snapshot that differs
  /// only in its idf table.
  struct Shard {
    Shard(synopsis::SparseRows docs, std::uint64_t doc_id_base,
          synopsis::BuildConfig config, ScorerParams scorer,
          synopsis::SynopsisStructure structure, synopsis::Synopsis synopsis);

    synopsis::SparseRows docs;
    std::uint64_t doc_id_base;
    synopsis::BuildConfig config;
    ScorerParams scorer;
    synopsis::SynopsisStructure structure;
    synopsis::Synopsis synopsis;
    InvertedIndex index;
    std::vector<std::uint32_t> doc_group;  // local doc -> group index
    std::vector<double> agg_length;        // merged length per aggregated page
  };

  SearchSnapshot(std::shared_ptr<const Shard> shard,
                 std::shared_ptr<const std::vector<double>> global_idf);

  std::shared_ptr<const Shard> shard_;
  std::shared_ptr<const std::vector<double>> global_idf_;
};

class SearchComponent {
 public:
  /// Observer of successful publishes: receives the applied batch and the
  /// epoch versions it moved between. The serving layer uses this to emit
  /// DLTA delta artifacts a warm standby can tail (see synopsis/delta.h).
  /// Invoked under the writer mutex — publishes are serialized, so sink
  /// calls are too, in version order.
  using DeltaSink = std::function<void(
      const synopsis::UpdateBatch& batch, std::uint64_t from_version,
      std::uint64_t to_version)>;

  /// `docs`: row = page, col = term id, value = occurrence count.
  /// `doc_id_base`: offset of this shard's pages in the global id space.
  /// `scorer`: ranking function (Lucene-classic TF-IDF by default, BM25
  /// available); applied to both exact scoring and aggregated pages.
  /// `pool` parallelizes the aggregation step and later updates (the SVD
  /// always runs on the calling thread); the component keeps the pointer
  /// (caller owns the pool's lifetime).
  SearchComponent(synopsis::SparseRows docs, std::uint64_t doc_id_base,
                  const synopsis::BuildConfig& config,
                  ScorerParams scorer = {},
                  common::ThreadPool* pool = nullptr);
  ~SearchComponent();

  SearchComponent(SearchComponent&&) noexcept;
  SearchComponent& operator=(SearchComponent&&) noexcept;

  /// Installs (or clears) the pool used by update().
  void set_pool(common::ThreadPool* pool);

  /// Pins the currently published epoch. Use one pin per request when a
  /// request makes several calls whose results must be consistent with
  /// each other (e.g. analyze() then group_member_docs()).
  std::shared_ptr<const SearchSnapshot> snapshot() const;

  /// Pins the current epoch together with its version atomically — the
  /// checkpoint writer's primitive (the version stamped into the artifact
  /// filename must be the version of the saved bytes).
  std::pair<std::shared_ptr<const SearchSnapshot>, std::uint64_t>
  snapshot_versioned() const;

  /// Version of the published epoch / full slot counters.
  std::uint64_t epoch_version() const;
  common::EpochStats epoch_stats() const;

  /// Standby alignment: rebases the epoch version counter (no publish) to
  /// the version a loaded checkpoint corresponds to on the primary, so
  /// replayed deltas advance the slot in lockstep with the primary's
  /// stream. Serialized with writers.
  void rebase_epoch_version(std::uint64_t v);

  /// Installs (or clears, with nullptr) the publish observer.
  void set_delta_sink(DeltaSink sink);

  // Convenience delegates to the current snapshot. The returned
  // references stay valid until the next publish on this component (the
  // same contract in-place update() offered before the epoch split); pin
  // snapshot() instead when updates may run concurrently.
  std::size_t num_docs() const { return snapshot()->num_docs(); }
  std::size_t num_groups() const { return snapshot()->num_groups(); }
  std::uint64_t doc_id_base() const { return snapshot()->doc_id_base(); }
  const synopsis::SynopsisStructure& structure() const;
  const synopsis::Synopsis& synopsis() const;
  const InvertedIndex& index() const;
  IndexSizeStats index_size() const { return snapshot()->index_size(); }
  std::vector<std::uint32_t> doc_frequencies() const {
    return snapshot()->doc_frequencies();
  }
  std::vector<std::uint32_t> group_sizes() const {
    return snapshot()->group_sizes();
  }
  SearchComponentWork analyze(const SearchRequest& request) const {
    return snapshot()->analyze(request);
  }
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request,
                                    std::size_t k) const {
    return snapshot()->exact_topk(request, k);
  }
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request,
                                       std::size_t k) const {
    return snapshot()->synopsis_topk(request, k);
  }
  std::vector<std::uint64_t> group_member_docs(std::size_t g) const {
    return snapshot()->group_member_docs(g);
  }

  /// Installs the corpus-global idf table used in all scoring; publishes
  /// a new epoch that shares the shard state (no copy, no rebuild).
  void set_global_idf(std::shared_ptr<const std::vector<double>> idf);

  /// Applies an input-data change batch to a copy of the published state,
  /// then publishes the result as a new epoch. In-flight queries keep
  /// scanning the epoch they pinned; no reader ever waits on this call. If
  /// the publish fails, nothing changed: no version bump, no delta.
  synopsis::UpdateReport update(const synopsis::UpdateBatch& batch);

  /// Replaces this component's state with `fresh`'s (the reload path):
  /// publishes a new epoch that shares `fresh`'s shard state under this
  /// component's idf. The pool and delta sink installed on *this*
  /// component are kept.
  void adopt(SearchComponent&& fresh);

  void save(std::ostream& os,
            common::Codec codec = common::default_codec()) const {
    snapshot()->save(os, codec);
  }
  static SearchComponent load(std::istream& is);

 private:
  struct Core;  // non-movable anchor (writer mutex + epoch slot)

  SearchComponent(std::unique_ptr<const SearchSnapshot> initial,
                  common::ThreadPool* pool);

  std::unique_ptr<Core> core_;
};

}  // namespace at::search
