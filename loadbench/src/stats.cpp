#include "loadbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace loadbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // The relative slack keeps ceil() off representation error: 99.9% of
  // 1000 must be rank 999, not 1000.
  const double x = q / 100.0 * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(x - 1e-9 * std::max(1.0, x)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_failed_late(std::vector<double>& ok, std::size_t failed,
                              double q) {
  const std::size_t n = ok.size() + failed;
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearest_rank(n, q);
  if (rank > ok.size()) return kInf;
  std::nth_element(ok.begin(), ok.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   ok.end());
  return ok[rank - 1];
}

double windowed_median(const std::vector<Timed>& ops, double begin_s,
                       double end_s, double window_s, const WindowStat& stat) {
  const auto nwin = static_cast<std::size_t>(
      std::max(1.0, std::round((end_s - begin_s) / window_s)));
  const double width = (end_s - begin_s) / static_cast<double>(nwin);
  std::vector<std::vector<double>> ok(nwin);
  std::vector<std::size_t> failed(nwin, 0);
  for (const auto& t : ops) {
    if (t.due_s < begin_s || t.due_s >= end_s) continue;
    const auto w = std::min(nwin - 1, static_cast<std::size_t>((t.due_s - begin_s) / width));
    if (std::isinf(t.latency_ms)) {
      ++failed[w];
    } else {
      ok[w].push_back(t.latency_ms);
    }
  }
  std::vector<double> per_window;
  for (std::size_t w = 0; w < nwin; ++w)
    if (!ok[w].empty() || failed[w] > 0) per_window.push_back(stat(ok[w], failed[w]));
  return median(std::move(per_window));
}

double windowed_percentile(const std::vector<Timed>& ops, double begin_s,
                           double end_s, double window_s, double q) {
  return windowed_median(
      ops, begin_s, end_s, window_s,
      [q](std::vector<double>& ok, std::size_t failed) {
        return percentile_failed_late(ok, failed, q);
      });
}

double windowed_share_within(const std::vector<Timed>& ops, double begin_s,
                             double end_s, double window_s, double limit_ms) {
  return windowed_median(
      ops, begin_s, end_s, window_s,
      [limit_ms](std::vector<double>& ok, std::size_t failed) {
        const auto fast = std::count_if(ok.begin(), ok.end(),
                                        [limit_ms](double v) { return v <= limit_ms; });
        return 100.0 * static_cast<double>(fast) / static_cast<double>(ok.size() + failed);
      });
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double tail_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 90.0, 50.0})
    if (samples_beyond(n, q) >= kMinTailSamples) return q;
  return 0.0;
}

double overlap(const std::vector<at::search::ScoredDoc>& retrieved,
               const std::vector<at::search::ScoredDoc>& exact) {
  if (exact.empty()) return 1.0;
  std::unordered_set<std::uint64_t> want;
  for (const auto& d : exact) want.insert(d.doc);
  std::size_t found = 0;
  const std::size_t n = std::min(retrieved.size(), exact.size());
  for (std::size_t i = 0; i < n; ++i) found += want.erase(retrieved[i].doc);
  return static_cast<double>(found) / static_cast<double>(exact.size());
}

bool same_answer(const std::vector<at::search::ScoredDoc>& a,
                 const std::vector<at::search::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool backlog_growing(const StepResult& s, double limit_ms,
                     std::size_t connections) {
  const double littles_bound =
      s.offered_rps * limit_ms / 1000.0 + static_cast<double>(connections);
  return s.outstanding_end > s.outstanding_mid &&
         static_cast<double>(s.outstanding_end) > littles_bound;
}

int highest_passing_step(const std::vector<StepResult>& steps,
                         double limit_ms, std::size_t connections) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& s = steps[i];
    if (s.tail_ms <= limit_ms && !backlog_growing(s, limit_ms, connections) &&
        (best < 0 || s.offered_rps > steps[static_cast<std::size_t>(best)].offered_rps))
      best = static_cast<int>(i);
  }
  return best;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> ok(std::move(v));
  return percentile_failed_late(ok, 0, 50.0);
}

}  // namespace loadbench
