#include "loadbench/src/schedule.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/zipf.h"
#include "loadbench/src/fixture.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace loadbench {

using namespace at;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec steady;
    steady.name = "steady";
    steady.step_rps = {1000.0};
    // Generous enough that no op of the fixed-rate workloads expires in
    // the generator or is shed when the host stalls this VM for tens of
    // ms; the ladder's tight-deadline regime is `overload`'s.
    steady.deadline_ms = 1000.0;
    v.push_back(steady);

    WorkloadSpec hot = steady;
    hot.name = "hot_mixed";
    hot.recommend_fraction = 0.10;
    // Skewed enough that fresh cache hits stay well above half of the
    // answers between publishes, so the median sits in one mode.
    hot.updates_per_s = 2.0;
    hot.pool_size = 1000;
    hot.zipf_s = 1.2;
    v.push_back(hot);

    WorkloadSpec over;
    over.name = "overload";
    over.step_rps = {1000.0, 5000.0, 20000.0};
    over.deadline_ms = 20.0;
    v.push_back(over);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : all_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::uint32_t> query_key(const search::SearchRequest& q) {
  std::vector<std::uint32_t> k = q.terms;
  std::sort(k.begin(), k.end());
  k.erase(std::unique(k.begin(), k.end()), k.end());
  return k;
}

namespace {

double exp_gap_s(common::Rng& rng, double rate) {
  return -std::log1p(-rng.uniform()) / rate;
}

}  // namespace

server::protocol::Request make_recommend(
    const workload::RatingWorkloadGen& ratings, common::Rng& rng) {
  auto user = ratings.sample_user(rng);
  const auto target = rng.uniform_index(user.size());
  server::protocol::Request r;
  r.op = server::protocol::Op::kRecommend;
  r.target_item = user[target].first;
  user.erase(user.begin() + static_cast<std::ptrdiff_t>(target));
  r.ratings.assign(user.begin(), user.end());
  return r;
}

server::protocol::Request make_update(common::Rng& rng) {
  server::protocol::Request r;
  r.op = server::protocol::Op::kUpdate;
  r.update_component =
      static_cast<std::uint32_t>(rng.uniform_index(corpus_config().num_components));
  r.update_adds = 2;
  r.update_changes = 2;
  r.update_seed = rng.next();
  return r;
}

std::vector<Schedule> make_schedules(const WorkloadSpec& spec,
                                     std::uint64_t seed, double seconds,
                                     std::size_t passes) {
  common::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x6c6f6164ull);
  const workload::CorpusGen corpus(corpus_config());
  const workload::RatingWorkloadGen ratings(rating_config());

  std::set<std::vector<std::uint32_t>> seen;
  const auto fresh_query = [&] {
    for (;;) {
      auto q = corpus.sample_query(rng);
      auto key = query_key(q);
      if (!key.empty() && seen.insert(std::move(key)).second) return q;
    }
  };
  std::vector<search::SearchRequest> pool;
  for (std::size_t i = 0; i < spec.pool_size; ++i) pool.push_back(fresh_query());
  const common::ZipfDistribution zipf(std::max<std::size_t>(1, spec.pool_size),
                                      spec.zipf_s);

  const std::size_t nsteps = spec.step_rps.size();
  double inverse_sum = 0.0;
  for (const double r : spec.step_rps) inverse_sum += 1.0 / r;
  std::vector<double> bounds{0.0};
  for (const double r : spec.step_rps)
    bounds.push_back(bounds.back() + seconds * (1.0 / r) / inverse_sum);
  bounds.back() = seconds;

  std::vector<Schedule> out(passes);
  const auto ns = [](double s) { return static_cast<std::int64_t>(s * 1e9); };
  for (auto& sched : out) {
    sched.step_begin_s = bounds;
    sched.queries = pool;
    for (std::size_t step = 0; step < nsteps; ++step) {
      const double begin = bounds[step];
      const double end = bounds[step + 1];
      for (double t = begin + exp_gap_s(rng, spec.step_rps[step]); t < end;
           t += exp_gap_s(rng, spec.step_rps[step])) {
        Op op;
        op.due_ns = ns(t);
        op.step = static_cast<std::uint32_t>(step);
        op.deadline_ms = static_cast<std::uint32_t>(spec.deadline_ms);
        if (rng.uniform() < spec.recommend_fraction) {
          op.kind = OpKind::kRecommend;
          op.item = static_cast<std::uint32_t>(sched.recos.size());
          sched.recos.push_back(make_recommend(ratings, rng));
        } else if (spec.pool_size > 0) {
          op.item = static_cast<std::uint32_t>(zipf.sample(rng));
        } else {
          op.item = static_cast<std::uint32_t>(sched.queries.size());
          sched.queries.push_back(fresh_query());
        }
        sched.ops.push_back(op);
      }
    }
    if (spec.updates_per_s > 0.0) {
      for (double t = exp_gap_s(rng, spec.updates_per_s); t < seconds;
           t += exp_gap_s(rng, spec.updates_per_s)) {
        Op op;
        op.due_ns = ns(t);
        op.kind = OpKind::kUpdate;
        op.deadline_ms = kUpdateDeadlineMs;
        op.step = static_cast<std::uint32_t>(
            std::upper_bound(bounds.begin() + 1, bounds.end() - 1, t) - (bounds.begin() + 1));
        op.item = static_cast<std::uint32_t>(sched.updates.size());
        sched.updates.push_back(make_update(rng));
        sched.ops.push_back(op);
      }
    }
    std::stable_sort(sched.ops.begin(), sched.ops.end(),
                     [](const Op& a, const Op& b) { return a.due_ns < b.due_ns; });
  }
  return out;
}

}  // namespace loadbench
