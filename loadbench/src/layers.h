// The traced run's replay of the workload's requests through the layer
// calls one at a time, timed from outside through public interfaces only,
// each call recorded as a span under one replay request.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sharded_executor.h"
#include "loadbench/src/evaluate.h"
#include "loadbench/src/generator.h"
#include "loadbench/src/schedule.h"
#include "loadbench/src/trace.h"

namespace loadbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// search.service.*, search.index.*, reco.* from replaying the pass's
/// searches and recommends (or seeded stand-ins when the pass has none).
void replay_query_layers(const Schedule& sched, const Fixture& mirror,
                         std::uint64_t seed, SpanRecorder& spans, Metrics& m);

/// search.cache.*: the pass's admitted search keys, with its applied
/// updates interleaved in time, replayed through a benchmark-owned
/// QueryCache with the server's bounds.
void replay_cache(const Schedule& sched, const PassResult& pass,
                  const std::vector<Answer>& answers, SpanRecorder& spans,
                  Metrics& m);

/// setup.synopsis_build_s / aggregate_s / index_build_s: each phase of the
/// component build run over every mirror shard on the executor, wall time.
void replay_setup_layers(const Fixture& mirror, at::common::ShardedExecutor& exec,
                         SpanRecorder& spans, Metrics& m);

/// synopsis.update_ms_*: seeded update batches applied to the mirror
/// through SearchService::update_component (call last: it changes data).
void replay_updates(Fixture& mirror, std::uint64_t seed, SpanRecorder& spans,
                    Metrics& m);

}  // namespace loadbench
