// The benchmark's own arithmetic: failures count as infinitely late, the
// tail percentile needs ten samples beyond it, overlap scoring, the seeded
// schedule, and the max_rps backlog rule.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "loadbench/src/schedule.h"
#include "loadbench/src/stats.h"
#include "loadbench/src/trace.h"

namespace loadbench {
namespace {

using at::search::ScoredDoc;

TEST(Percentile, FailuresCountAsInfinitelyLate) {
  std::vector<double> ok = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_EQ(percentile_failed_late(ok, 0, 50.0), 3.0);
  EXPECT_EQ(percentile_failed_late(ok, 0, 100.0), 5.0);
  // 5 answered + 5 failed: the median's rank (5) is the last answer...
  EXPECT_EQ(percentile_failed_late(ok, 5, 50.0), 5.0);
  // ...and any higher rank lands on a failure.
  EXPECT_TRUE(std::isinf(percentile_failed_late(ok, 5, 60.0)));
  std::vector<double> none;
  EXPECT_TRUE(std::isinf(percentile_failed_late(none, 3, 1.0)));
  EXPECT_TRUE(std::isnan(percentile_failed_late(none, 0, 50.0)));
}

TEST(Percentile, NearestRankOnHundredSamples) {
  std::vector<double> ok;
  for (int i = 1; i <= 100; ++i) ok.push_back(i);
  EXPECT_EQ(percentile_failed_late(ok, 0, 99.0), 99.0);
  // One failure among 100 samples: p99 is rank 99 of 100, still answered.
  ok.pop_back();
  EXPECT_EQ(percentile_failed_late(ok, 1, 99.0), 99.0);
  // Two failures: rank 99 is a failure.
  ok.pop_back();
  EXPECT_TRUE(std::isinf(percentile_failed_late(ok, 2, 99.0)));
}

TEST(Percentile, WindowedIsTheMedianOverWindows) {
  // Four 1 s windows: p50s of 1, 2, 3 and a window of failures.
  std::vector<Timed> ops = {{0.1, 1}, {0.5, 1}, {1.2, 2}, {1.9, 2},
                            {2.0, 3}, {2.5, 3}, {3.1, kInf}, {3.2, kInf}};
  // Medians 1, 2, 3, inf: the nearest-rank median of four is the 2nd.
  EXPECT_EQ(windowed_percentile(ops, 0.0, 4.0, 1.0, 50.0), 2.0);
  // A stall ruining one window of three does not move it.
  EXPECT_EQ(windowed_percentile(ops, 1.0, 4.0, 1.0, 50.0), 3.0);
  // Outside [begin, end) is ignored; empty windows are skipped.
  EXPECT_EQ(windowed_percentile(ops, 0.0, 1.0, 0.25, 50.0), 1.0);
  EXPECT_TRUE(std::isnan(windowed_percentile(ops, 10.0, 11.0, 1.0, 50.0)));
}

TEST(Percentile, WindowedShareWithinALimit) {
  // Window 0: 3 of 4 within 1 ms; window 1: 1 of 4 (one failure); window
  // 2: 4 of 4. Median of 75, 25, 100 is 75.
  std::vector<Timed> ops = {{0.1, 0.5}, {0.2, 0.9}, {0.3, 1.0}, {0.4, 3.0},
                            {1.1, 0.2}, {1.2, 2.0}, {1.3, 5.0}, {1.4, kInf},
                            {2.1, 0.1}, {2.2, 0.1}, {2.3, 0.1}, {2.4, 0.1}};
  EXPECT_EQ(windowed_share_within(ops, 0.0, 3.0, 1.0, 1.0), 75.0);
  EXPECT_EQ(windowed_share_within(ops, 1.0, 2.0, 1.0, 1.0), 25.0);
}

TEST(TailChoice, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
  EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
  EXPECT_EQ(samples_beyond(9999, 99.9), 9u);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(0), 0.0);
}

TEST(Overlap, ScoresSharedDocsAgainstTheExactAnswer) {
  const std::vector<ScoredDoc> exact = {{3.0, 1}, {2.0, 2}, {1.0, 3}, {0.5, 4}};
  EXPECT_EQ(overlap(exact, exact), 1.0);
  // Order and scores do not matter for overlap, only ids.
  EXPECT_EQ(overlap({{9.0, 4}, {8.0, 3}, {7.0, 2}, {6.0, 1}}, exact), 1.0);
  EXPECT_EQ(overlap({{1.0, 1}, {1.0, 9}}, exact), 0.25);
  EXPECT_EQ(overlap({}, exact), 0.0);
  EXPECT_EQ(overlap({{1.0, 7}}, {}), 1.0);
  // Only the first |exact| retrieved docs count, and duplicates once.
  EXPECT_EQ(overlap({{1.0, 9}, {1.0, 8}, {1.0, 7}, {1.0, 6}, {1.0, 1}}, exact), 0.0);
  EXPECT_EQ(overlap({{1.0, 1}, {1.0, 1}}, exact), 0.25);
}

TEST(Overlap, SameAnswerIsBitwise) {
  const std::vector<ScoredDoc> a = {{1.0, 1}, {0.5, 2}};
  EXPECT_TRUE(same_answer(a, a));
  EXPECT_FALSE(same_answer(a, {{1.0, 1}, {0.5000000000000001, 2}}));
  EXPECT_FALSE(same_answer(a, {{0.5, 2}, {1.0, 1}}));
  EXPECT_FALSE(same_answer(a, {{1.0, 1}}));
  EXPECT_FALSE(same_answer({{0.0, 1}}, {{-0.0, 1}}));
}

TEST(Schedule, SeedReproducesExactly) {
  for (const auto& spec : all_workloads()) {
    const auto a = make_schedules(spec, 7, 0.5, 2);
    const auto b = make_schedules(spec, 7, 0.5, 2);
    const auto c = make_schedules(spec, 8, 0.5, 2);
    ASSERT_EQ(a.size(), 2u);
    for (std::size_t p = 0; p < a.size(); ++p) {
      ASSERT_EQ(a[p].ops.size(), b[p].ops.size()) << spec.name;
      for (std::size_t i = 0; i < a[p].ops.size(); ++i) {
        EXPECT_EQ(a[p].ops[i].due_ns, b[p].ops[i].due_ns);
        EXPECT_EQ(a[p].ops[i].kind, b[p].ops[i].kind);
        EXPECT_EQ(a[p].ops[i].item, b[p].ops[i].item);
        EXPECT_EQ(a[p].ops[i].deadline_ms, b[p].ops[i].deadline_ms);
      }
      ASSERT_EQ(a[p].queries.size(), b[p].queries.size());
      for (std::size_t i = 0; i < a[p].queries.size(); ++i)
        EXPECT_EQ(a[p].queries[i].terms, b[p].queries[i].terms);
      ASSERT_EQ(a[p].updates.size(), b[p].updates.size());
      for (std::size_t i = 0; i < a[p].updates.size(); ++i)
        EXPECT_EQ(a[p].updates[i].update_seed, b[p].updates[i].update_seed);
    }
    EXPECT_NE(a[0].ops.front().due_ns, c[0].ops.front().due_ns) << spec.name;
  }
}

TEST(Schedule, ShapeFollowsTheWorkload) {
  const auto& steady = *find_workload("steady");
  const auto s = make_schedules(steady, 1, 2.0, 2);
  // Poisson count within 5 sigma of rate * seconds.
  const double expect = steady.step_rps[0] * 2.0;
  EXPECT_NEAR(static_cast<double>(s[0].ops.size()), expect, 5 * std::sqrt(expect));
  // Every query is distinct, across both passes.
  std::set<std::vector<std::uint32_t>> keys;
  std::size_t n = 0;
  for (const auto& p : s)
    for (const auto& q : p.queries) {
      keys.insert(query_key(q));
      ++n;
    }
  EXPECT_EQ(keys.size(), n);
  for (std::size_t i = 1; i < s[0].ops.size(); ++i)
    EXPECT_LE(s[0].ops[i - 1].due_ns, s[0].ops[i].due_ns);

  // Staircase steps last inversely to their rates: equal op counts.
  const auto& over = *find_workload("overload");
  const auto o = make_schedules(over, 1, 3.0, 1)[0];
  ASSERT_EQ(o.step_begin_s.size(), over.step_rps.size() + 1);
  EXPECT_EQ(o.step_begin_s.front(), 0.0);
  EXPECT_EQ(o.step_begin_s.back(), 3.0);
  std::vector<std::size_t> per_step(over.step_rps.size(), 0);
  for (const auto& op : o.ops) {
    ++per_step[op.step];
    EXPECT_GE(op.due_ns / 1e9, o.step_begin_s[op.step]);
    EXPECT_LT(op.due_ns / 1e9, o.step_begin_s[op.step + 1]);
  }
  const double each = static_cast<double>(o.ops.size()) / static_cast<double>(per_step.size());
  for (const auto n_k : per_step) EXPECT_NEAR(static_cast<double>(n_k), each, 5 * std::sqrt(each));

  const auto h = make_schedules(*find_workload("hot_mixed"), 1, 3.0, 1)[0];
  EXPECT_FALSE(h.recos.empty());
  EXPECT_FALSE(h.updates.empty());
  for (const auto& op : h.ops)
    if (op.kind == OpKind::kSearch) EXPECT_LT(op.item, h.queries.size());
}

TEST(MaxRps, BacklogRule) {
  StepResult s;
  s.offered_rps = 1000;  // Little's bound at 2 ms and 4 conns: 2 + 4 = 6
  s.outstanding_mid = 3;
  s.outstanding_end = 7;
  EXPECT_TRUE(backlog_growing(s, 2.0, 4));
  s.outstanding_end = 6;  // at the bound
  EXPECT_FALSE(backlog_growing(s, 2.0, 4));
  s.outstanding_mid = 50;  // high but shrinking
  s.outstanding_end = 40;
  EXPECT_FALSE(backlog_growing(s, 2.0, 4));
}

TEST(MaxRps, HighestPassingStep) {
  const auto step = [](double rps, double tail, std::size_t mid, std::size_t end) {
    StepResult s;
    s.offered_rps = rps;
    s.tail_ms = tail;
    s.outstanding_mid = mid;
    s.outstanding_end = end;
    return s;
  };
  std::vector<StepResult> steps = {step(1000, 1.0, 1, 1), step(2000, 1.9, 2, 2),
                                   step(3000, kInf, 2, 3), step(4000, 1.5, 5, 90)};
  // 3000 misses the limit; 4000 meets it but its backlog grows.
  EXPECT_EQ(highest_passing_step(steps, 2.0, 4), 1);
  steps[3].outstanding_end = 5;
  EXPECT_EQ(highest_passing_step(steps, 2.0, 4), 3);
  EXPECT_EQ(highest_passing_step({step(1000, 2.5, 0, 0)}, 2.0, 4), -1);
  EXPECT_EQ(highest_passing_step({}, 2.0, 4), -1);
}

TEST(Trace, SelfTimeSubtractsCoveredChildTime) {
  SpanRecorder r;
  const auto root = r.record("req", 0, 100, 0, 1);
  r.record("a", 10, 30, root, 1);
  r.record("b", 20, 50, root, 1);   // overlaps a: covered 10..50
  r.record("c", 90, 120, root, 1);  // clipped to the parent: 90..100
  r.record("req", 0, 10, 0, 2);
  const auto self = r.self_us("req");
  ASSERT_EQ(self.size(), 2u);
  EXPECT_DOUBLE_EQ(self[0], (100 - 40 - 10) / 1e3);
  EXPECT_DOUBLE_EQ(self[1], 10 / 1e3);
  EXPECT_EQ(r.count("req"), 2u);
  EXPECT_EQ(r.count("missing"), 0u);
}

}  // namespace
}  // namespace loadbench
