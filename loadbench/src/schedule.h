// Workload definitions and the seeded open-loop schedule: every op's due
// time, kind, deadline and payload, fixed before the first request is
// sent. The same (workload, seed, seconds) always yields the same schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "common/rng.h"
#include "services/search/component.h"
#include "workload/ratings.h"

namespace loadbench {

enum class OpKind : std::uint8_t { kSearch, kRecommend, kUpdate };

struct Op {
  std::int64_t due_ns = 0;  // offset from the pass's start
  OpKind kind = OpKind::kSearch;
  std::uint32_t deadline_ms = 0;  // the user's deadline, counted from due
  std::uint32_t step = 0;         // staircase step the op belongs to
  std::uint32_t item = 0;         // index into queries / recos / updates
};

struct WorkloadSpec {
  std::string name;
  /// Offered search+recommend rate of each staircase step (Poisson).
  /// These are fixed numbers, chosen for a 4-vCPU x86 box.
  std::vector<double> step_rps;
  double deadline_ms = 0.0;
  double recommend_fraction = 0.0;
  double updates_per_s = 0.0;  // separate Poisson stream of protocol op 5
  /// 0: every search is a distinct query. Otherwise searches draw Zipf
  /// (exponent zipf_s) from a pool of this many distinct queries.
  std::size_t pool_size = 0;
  double zipf_s = 0.0;
};

/// The fixed workloads; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);
const std::vector<WorkloadSpec>& all_workloads();

/// Updates are retraining requests, not user reads: they carry this
/// deadline so admission never sheds them.
inline constexpr std::uint32_t kUpdateDeadlineMs = 1000;
/// The nominal machine the step rates were fixed on.
inline constexpr unsigned kNominalNproc = 4;

struct Schedule {
  std::vector<Op> ops;  // sorted by due_ns
  std::vector<at::search::SearchRequest> queries;  // distinct by key
  std::vector<at::server::protocol::Request> recos;
  std::vector<at::server::protocol::Request> updates;
  /// Step k runs over [step_begin_s[k], step_begin_s[k + 1]). Each step
  /// lasts inversely to its rate, so every step offers the same number of
  /// requests and no step outweighs the others in whole-run shares.
  std::vector<double> step_begin_s;
};

/// Builds `passes` consecutive schedules of `seconds` each from one seeded
/// stream. Queries are distinct across all passes (a pass's cache must not
/// be warmed by the one before it); a pool workload shares its pool.
std::vector<Schedule> make_schedules(const WorkloadSpec& spec,
                                     std::uint64_t seed, double seconds,
                                     std::size_t passes);

/// One recommend request: a sampled user's ratings with one rated item
/// held out as the target.
at::server::protocol::Request make_recommend(
    const at::workload::RatingWorkloadGen& ratings, at::common::Rng& rng);
/// One protocol op 5 retraining request for a random search component.
at::server::protocol::Request make_update(at::common::Rng& rng);

/// Canonical identity of a query (sorted, deduplicated terms).
std::vector<std::uint32_t> query_key(const at::search::SearchRequest& q);

}  // namespace loadbench
