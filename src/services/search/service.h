// The fan-out search service: a query is dispatched to every shard
// component; local results merge into the global top-k, whose overlap with
// the exact top-k is the paper's accuracy metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sharded_executor.h"
#include "core/outcome.h"
#include "core/technique.h"
#include "services/search/component.h"
#include "services/search/query_cache.h"

namespace at::search {

/// Per-component outcome observed by the simulator for one request.
using ComponentOutcome = core::ComponentOutcome;

struct SearchEvalResult {
  double accuracy = 0.0;     // mean top-k overlap with exact results
  double loss_pct = 0.0;     // (1 - accuracy) * 100 relative to exact
  std::size_t requests = 0;
};

class SearchService {
 public:
  /// Builds the service over per-shard components and installs a shared
  /// corpus-global idf so scores are comparable across shards.
  SearchService(std::vector<SearchComponent> components, std::size_t k = 10);

  /// Builds the service with a *preset* corpus-global idf instead of
  /// rebuilding it from current component contents. The warm-standby
  /// path needs this: the primary's idf is a function of the contents at
  /// *its* construction time and is deliberately not refreshed by online
  /// updates, so a replica reconstructing from a post-update checkpoint
  /// must install the checkpointed idf verbatim to score byte-identically.
  /// Falls back to a rebuild when `global_idf` is null.
  SearchService(std::vector<SearchComponent> components,
                std::shared_ptr<const std::vector<double>> global_idf,
                std::size_t k);

  std::size_t num_components() const { return components_.size(); }
  const SearchComponent& component(std::size_t i) const {
    return components_.at(i);
  }
  SearchComponent& component(std::size_t i) { return components_.at(i); }
  std::size_t k() const { return k_; }
  std::size_t total_docs() const {
    return total_docs_.load(std::memory_order_relaxed);
  }

  /// Sum of every component's epoch version: changes whenever any shard
  /// publishes a new epoch (update, reload, idf rebuild). The freshness
  /// token cached answers are stamped with.
  std::uint64_t data_version() const;
  /// Aggregated epoch counters across all components (version/published/
  /// retired/live summed per slot).
  common::EpochStats epoch_stats() const;

  /// Aggregate inverted-index footprint across all shard components.
  IndexSizeStats index_size() const;

  /// Enables the LRU query cache consulted by exact_topk (paper §3.2: the
  /// engine scans its index only "if a query request does not hit the
  /// query cache").
  void enable_query_cache(std::size_t capacity);
  const QueryCache* query_cache() const { return cache_.get(); }

  /// Installs a topology-aware executor: every component is assigned a
  /// home group (round-robin over the executor's nodes), its update/build
  /// work runs on that group's pinned pool, and query fan-out dispatches
  /// each component to its home group. The per-component lists merge in
  /// component order, so results are bit-identical to the sequential scan
  /// (pinned by tests). The caller owns the executor's lifetime; pass
  /// nullptr to run every component sequentially on the calling thread.
  void set_executor(common::ShardedExecutor* exec);
  common::ShardedExecutor* executor() const { return exec_; }

  /// Routes an input-data change batch to component `c` and invalidates
  /// the query cache (every cached answer is potentially stale). The
  /// component retrains a copy of its published state and publishes it as
  /// a new epoch — concurrent queries keep scanning their pinned snapshots
  /// and never block on this call.
  synopsis::UpdateReport update_component(std::size_t c,
                                          const synopsis::UpdateBatch& batch);

  /// Exact global top-k (served from the query cache when enabled).
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request) const;

  /// Fault-tolerant exact top-k: a component whose scan throws (dead
  /// worker group, artifact fault, injected failpoint) contributes
  /// nothing instead of failing the query. `components_ok` (may be null)
  /// receives how many components actually contributed, so callers can
  /// mark the answer degraded and estimate its accuracy loss. Bypasses
  /// the query cache — a partial answer must never be cached as exact.
  std::vector<ScoredDoc> exact_topk_partial(const SearchRequest& request,
                                            std::size_t* components_ok) const;

  /// Synopsis-only global top-k: every component answers from its
  /// aggregated pages alone (stage 1, no postings scan). The cheap rung
  /// of the serving degradation ladder.
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request) const;

  /// Replaces component `c` with a snapshot loaded from `is`, with the
  /// strong exception guarantee: the snapshot is fully loaded and indexed
  /// into a temporary first, so a truncated/corrupt stream throws
  /// ArtifactError and leaves the service (and the old component) exactly
  /// as it was. On success the global idf table is rebuilt and the query
  /// cache invalidated.
  void reload_component(std::size_t c, std::istream& is);

  /// Retrieved top-k under a technique given per-component outcomes.
  /// For AccuracyTrader, if fewer than k exactly-scored pages exist in the
  /// processed sets, the result is padded from the initial (stage-1)
  /// synopsis ranking: member pages of the globally best-ranked
  /// *unprocessed* aggregated pages, in correlation order.
  std::vector<ScoredDoc> retrieve(
      const SearchRequest& request, core::Technique technique,
      const std::vector<ComponentOutcome>& outcomes) const;

  /// Mean accuracy over a request batch; `outcome_for(r)` supplies request
  /// r's per-component outcomes.
  SearchEvalResult evaluate(
      const std::vector<SearchRequest>& requests, core::Technique technique,
      const std::function<std::vector<ComponentOutcome>(std::size_t)>&
          outcome_for) const;

  SearchEvalResult evaluate_uniform(const std::vector<SearchRequest>& requests,
                                    core::Technique technique,
                                    ComponentOutcome outcome) const;

 private:
  /// Runs fn(c) for every component: one grouped executor dispatch when an
  /// executor is installed, else a sequential loop.
  void for_each_component(const std::function<void(std::size_t)>& fn) const;

  /// Runs the per-component scan and merges the locals in component order
  /// into the global top-k. `scan` returns the component's local top-k
  /// (empty for skipped components).
  std::vector<ScoredDoc> fan_out_topk(
      const std::function<std::vector<ScoredDoc>(std::size_t)>& scan) const;

  /// Recomputes the corpus-global idf from current component contents and
  /// publishes it into every component (each a cheap epoch).
  void rebuild_global_idf();

  std::vector<SearchComponent> components_;
  std::size_t k_;
  std::atomic<std::size_t> total_docs_{0};
  std::unique_ptr<QueryCache> cache_;
  common::ShardedExecutor* exec_ = nullptr;
};

}  // namespace at::search
