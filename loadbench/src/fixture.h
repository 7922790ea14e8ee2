// The benchmark's fixed data set: one search corpus and one CF rating set,
// identical in the server process and in the generator's mirror copy. Only
// the request stream depends on --seed; the data never does, so the exact
// reference answers the mirror computes are the ones the server must give.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/sharded_executor.h"
#include "server/protocol.h"
#include "services/recommender/service.h"
#include "services/search/service.h"
#include "synopsis/builder.h"
#include "synopsis/updater.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace loadbench {

/// ~16 x 2000 docs: big enough that one full scan is ~100 us of work and
/// the loopback round trip does not dominate, small enough that set-up
/// stays a few seconds.
at::workload::CorpusConfig corpus_config();
at::workload::RatingConfig rating_config();
at::synopsis::BuildConfig build_config();

struct Fixture {
  std::unique_ptr<at::search::SearchService> search;
  std::unique_ptr<at::reco::CfService> reco;
  /// Corpus-generator queries (not the benchmark's): the server calibrates
  /// its ladder cost model on them at start().
  std::vector<at::search::SearchRequest> calibration;
};

/// Builds both services, each component constructed on its home executor
/// group, and installs the executor on them (as the serving binary does).
Fixture build_fixture(at::common::ShardedExecutor& exec);

/// The batch the server synthesizes for protocol op 5, reproduced against
/// the mirror's component state (same rows count and column count give the
/// same rows). Must stay in step with Server::serve_update.
at::synopsis::UpdateBatch synthesize_update(const at::search::SearchSnapshot& s,
                                            const at::server::protocol::Request& r);

}  // namespace loadbench
