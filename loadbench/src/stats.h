// The benchmark's own arithmetic: latency percentiles in which failures
// count as infinitely late, the choice of the highest tail percentile a
// sample supports, top-k overlap scoring against the exact answer, and the
// max_rps rule over the overload staircase. Kept free of I/O so the unit
// tests in loadbench/tests pin every rule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "services/search/topk.h"

namespace loadbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in (0, 100]) over `ok.size() + failed`
/// samples, where every failure counts as infinitely late: the result is
/// +inf as soon as the rank falls among the failures. Sorts `ok` in place.
/// Returns NaN for an empty sample.
double percentile_failed_late(std::vector<double>& ok, std::size_t failed,
                              double q);

/// One timed op for windowed percentiles: when it was due, and its
/// latency (+inf when it failed).
struct Timed {
  double due_s = 0.0;
  double latency_ms = kInf;
};

/// A statistic of one window's answered latencies and failure count.
using WindowStat = std::function<double(std::vector<double>& ok, std::size_t failed)>;

/// Median over consecutive windows of about `window_s` (by due time, from
/// `begin_s` to `end_s`) of `stat` over each window. A stall that ruins one
/// window moves the result only if it ruins half of them. Windows without
/// samples are skipped; NaN when every window is empty.
double windowed_median(const std::vector<Timed>& ops, double begin_s,
                       double end_s, double window_s, const WindowStat& stat);

/// windowed_median of the q-th percentile, failures infinitely late.
double windowed_percentile(const std::vector<Timed>& ops, double begin_s,
                           double end_s, double window_s, double q);

/// windowed_median of the share (%) of ops answered OK within `limit_ms`.
double windowed_share_within(const std::vector<Timed>& ops, double begin_s,
                             double end_s, double window_s, double limit_ms);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

/// Highest of 99.9 / 99 / 90 / 50 that has kMinTailSamples beyond it in
/// n samples, or 0 when none has.
double tail_percentile(std::size_t n);

/// Share of the exact answer's docs that `retrieved` (its first
/// exact.size() entries) contains: the paper's top-k accuracy. 1 when the
/// exact answer is empty. A failed request is scored 0 by the caller.
double overlap(const std::vector<at::search::ScoredDoc>& retrieved,
               const std::vector<at::search::ScoredDoc>& exact);

/// True when doc ids, bitwise scores and order are all the same.
bool same_answer(const std::vector<at::search::ScoredDoc>& a,
                 const std::vector<at::search::ScoredDoc>& b);

/// One step of a rate staircase, as measured.
struct StepResult {
  double offered_rps = 0.0;
  double tail_ms = kInf;     // the rule's percentile, failures infinitely late
  double goodput_rps = 0.0;  // answered OK within the limit, per second
  /// Generator ops due but neither answered nor expired, at the step's
  /// midpoint and at its end.
  std::size_t outstanding_mid = 0;
  std::size_t outstanding_end = 0;
};

/// A step's backlog grows when the outstanding count at its end exceeds
/// both the count at its midpoint and what Little's law allows a system
/// that meets the limit: offered_rps * limit + connections.
bool backlog_growing(const StepResult& s, double limit_ms,
                     std::size_t connections);

/// Index of the highest step whose tail latency meets the limit with no
/// growing backlog, or -1 when no step passes.
int highest_passing_step(const std::vector<StepResult>& steps,
                         double limit_ms, std::size_t connections);

double median(std::vector<double> v);

}  // namespace loadbench
