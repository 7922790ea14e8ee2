// Scores every answered op against the generator's mirror of the fixture:
// search answers by top-k overlap with the exact answer, and the
// correctness gate (a full-tier answer with estimated loss 0 must equal an
// exact answer in doc ids, bitwise scores and order; a full-tier
// recommendation must equal the exact prediction bitwise).
//
// Updates change the data while searches run, so the exact answer depends
// on the epoch a search was served in. Updates are serialized by the
// generator; a search sent after update u was answered, and answered
// before update v was sent, was served in an epoch between the two. The
// mirror replays the same updates in the same order and the search is
// checked against each exact answer in that range.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "loadbench/src/fixture.h"
#include "loadbench/src/generator.h"
#include "loadbench/src/schedule.h"

namespace loadbench {

using Answer = std::vector<at::search::ScoredDoc>;

struct References {
  /// Epoch-0 exact answers, [pass][query item]; computed before timing.
  std::vector<std::vector<Answer>> search;
  /// Exact predictions, [pass][reco item]; the recommender never updates.
  std::vector<std::vector<double>> reco;
};

References compute_references(const std::vector<Schedule>& scheds,
                              Fixture& mirror, at::common::ShardedExecutor& exec);

struct Evaluation {
  /// [pass][op]: top-k overlap of a search (0 when it failed), -1 for
  /// other ops.
  std::vector<std::vector<double>> overlap;
  std::size_t gate_failures = 0;
  std::size_t updates_applied = 0;
  std::vector<std::string> messages;  // first few gate failures
};

/// Walks the mirror through every applied update. Throws when an update's
/// fate is unknown (its connection broke), since the mirror cannot follow.
Evaluation evaluate(const std::vector<Schedule>& scheds,
                    const std::vector<PassResult>& passes, Fixture& mirror,
                    const References& refs);

}  // namespace loadbench
