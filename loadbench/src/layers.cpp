#include "loadbench/src/layers.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>

#include "loadbench/src/stats.h"
#include "server/server.h"
#include "services/search/inverted_index.h"
#include "services/search/query_cache.h"
#include "synopsis/aggregate.h"

namespace loadbench {

using namespace at;
namespace proto = server::protocol;

namespace {

/// Replay requests get ids far above any generator request id.
constexpr std::uint64_t kReplayIdBase = 1ull << 40;
constexpr std::size_t kReplaySearches = 400;
constexpr std::size_t kReplayRecos = 200;
constexpr std::size_t kReplayUpdates = 24;
constexpr std::size_t kWarmup = 50;

double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  return percentile_failed_late(v, 0, q);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

reco::CfRequest to_cf(const proto::Request& r) {
  synopsis::SparseVector ratings(r.ratings.begin(), r.ratings.end());
  std::sort(ratings.begin(), ratings.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return reco::CfRequest::make(std::move(ratings), r.target_item);
}

}  // namespace

void replay_query_layers(const Schedule& sched, const Fixture& mirror,
                         std::uint64_t seed, SpanRecorder& spans, Metrics& m) {
  const auto& svc = *mirror.search;
  std::vector<const search::SearchRequest*> queries;
  for (const auto& op : sched.ops) {
    if (queries.size() == kReplaySearches + kWarmup) break;
    if (op.kind == OpKind::kSearch) queries.push_back(&sched.queries[op.item]);
  }

  double postings = 0.0, synopsis_loss = 0.0;
  std::size_t measured = 0;
  for (std::size_t n = 0; n < queries.size(); ++n) {
    const auto& q = *queries[n];
    const bool warm = n < kWarmup;
    SpanRecorder scratch;
    SpanRecorder& rec = warm ? scratch : spans;
    const std::uint64_t id = kReplayIdBase + n;
    const auto root = rec.open("replay.search", 0, id);

    auto s = rec.open("search.service.exact_topk_partial", root, id);
    std::size_t ok = 0;
    const auto exact = svc.exact_topk_partial(q, &ok);
    rec.close(s);

    const auto seq = rec.open("search.index.sequential", root, id);
    for (std::size_t c = 0; c < svc.num_components(); ++c) {
      const auto snap = svc.component(c).snapshot();
      s = rec.open("search.index.topk", seq, id);
      const auto local = snap->exact_topk(q, svc.k());
      rec.close(s);
      if (!warm)
        for (const auto t : q.terms) postings += snap->index().doc_frequency(t);
    }
    rec.close(seq);

    s = rec.open("search.service.synopsis_topk", root, id);
    const auto syn = svc.synopsis_topk(q);
    rec.close(s);
    rec.close(root);
    if (!warm) {
      synopsis_loss += (1.0 - overlap(syn, exact)) * 100.0;
      ++measured;
    }
  }
  const auto partial = spans.durations_us("search.service.exact_topk_partial");
  const auto sequential = spans.durations_us("search.index.sequential");
  const auto topk = spans.durations_us("search.index.topk");
  const double n = std::max<double>(1.0, static_cast<double>(measured));
  m["search.service.exact_topk_us_p50"] = {pct(partial, 50.0), "us"};
  m["search.service.exact_topk_us_p99"] = {pct(partial, 99.0), "us"};
  m["search.service.fanout_ratio"] = {sum(partial) / std::max(1e-9, sum(sequential)), "ratio"};
  m["search.service.synopsis_topk_us_p50"] = {
      pct(spans.durations_us("search.service.synopsis_topk"), 50.0), "us"};
  m["search.service.synopsis_loss_pct"] = {synopsis_loss / n, "%"};
  m["search.index.topk_us_p50"] = {pct(topk, 50.0), "us"};
  m["search.index.postings_per_query"] = {postings / n, "count"};
  m["search.index.ns_per_posting"] = {sum(topk) * 1e3 / std::max(1.0, postings), "ns"};

  // Recommends: the pass's own, else a seeded set of the same shape.
  std::vector<proto::Request> recos(sched.recos.begin(),
                                    sched.recos.begin() +
                                        static_cast<std::ptrdiff_t>(std::min(sched.recos.size(), kReplayRecos)));
  common::Rng rng(seed ^ 0x7265636full);
  const workload::RatingWorkloadGen ratings(rating_config());
  while (recos.size() < kReplayRecos) recos.push_back(make_recommend(ratings, rng));
  const std::vector<core::ComponentOutcome> synopsis_only(
      mirror.reco->num_components(), core::ComponentOutcome{true, 0});
  for (std::size_t i = 0; i < recos.size(); ++i) {
    const auto req = to_cf(recos[i]);
    const std::uint64_t id = kReplayIdBase + kReplaySearches + kWarmup + i;
    const auto root = spans.open("replay.recommend", 0, id);
    auto s = spans.open("reco.predict_exact", root, id);
    (void)mirror.reco->predict_exact(req);
    spans.close(s);
    s = spans.open("reco.predict_synopsis", root, id);
    (void)mirror.reco->predict(req, core::Technique::kAccuracyTrader, synopsis_only);
    spans.close(s);
    spans.close(root);
  }
  m["reco.predict_exact_us_p50"] = {pct(spans.durations_us("reco.predict_exact"), 50.0), "us"};
  m["reco.predict_synopsis_us_p50"] = {
      pct(spans.durations_us("reco.predict_synopsis"), 50.0), "us"};
}

void replay_cache(const Schedule& sched, const PassResult& pass,
                  const std::vector<Answer>& answers, SpanRecorder& spans,
                  Metrics& m) {
  const server::ServerConfig bounds;
  search::QueryCache cache(bounds.cache_capacity, bounds.cache_max_bytes);
  // Admitted searches and applied updates, in the order the server saw
  // them (send time; updates take effect when answered).
  struct Event {
    std::int64_t t;
    std::size_t op;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < sched.ops.size(); ++i) {
    const Outcome& o = pass.outcomes[i];
    if (sched.ops[i].kind == OpKind::kSearch && o.send_ns >= 0 &&
        !o.transport_failed && o.status != proto::Status::kShed)
      events.push_back({o.send_ns, i});
    if (sched.ops[i].kind == OpKind::kUpdate && o.ok())
      events.push_back({o.finish_ns, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  std::uint64_t epoch = 0;
  std::size_t lookups = 0, fresh = 0;
  std::vector<search::ScoredDoc> out;
  for (const auto& e : events) {
    const Op& op = sched.ops[e.op];
    if (op.kind == OpKind::kUpdate) {
      cache.mark_stale_epochs(++epoch, bounds.stale_penalty_pct);
      continue;
    }
    const auto& terms = sched.queries[op.item].terms;
    search::ResultMeta meta;
    const auto s = spans.open("search.cache.lookup", 0, 3 * kReplayIdBase + lookups);
    const bool hit = cache.lookup(terms, &out, &meta);
    spans.close(s);
    ++lookups;
    if (hit && !meta.stale && meta.epoch == epoch) {
      ++fresh;
    } else {
      cache.insert(terms, answers[op.item], search::ResultMeta{0.0, epoch});
    }
  }
  m["search.cache.hit_pct"] = {
      lookups ? 100.0 * static_cast<double>(fresh) / static_cast<double>(lookups) : 0.0, "%"};
  m["search.cache.lookup_us_p50"] = {pct(spans.durations_us("search.cache.lookup"), 50.0), "us"};
}

void replay_setup_layers(const Fixture& mirror, common::ShardedExecutor& exec,
                         SpanRecorder& spans, Metrics& m) {
  const auto& svc = *mirror.search;
  const std::size_t n = svc.num_components();
  std::vector<std::shared_ptr<const search::SearchSnapshot>> snaps;
  for (std::size_t c = 0; c < n; ++c) snaps.push_back(svc.component(c).snapshot());
  std::vector<std::optional<synopsis::SynopsisStructure>> structures(n);
  const auto bcfg = build_config();
  // Each phase runs over all shards on their home groups, as the fixture
  // build does; the per-shard call times are recorded from the main thread
  // once the phase is done (the recorder is single-threaded).
  std::vector<std::int64_t> t0(n), t1(n);
  const auto phase = [&](const char* phase_name, const char* call_name,
                         const std::function<void(std::size_t)>& call) {
    const std::int64_t begin = now_ns();
    exec.for_each_shard(n, [&](std::size_t c) {
      t0[c] = now_ns();
      call(c);
      t1[c] = now_ns();
    });
    const std::int64_t end = now_ns();
    const auto root = spans.record(phase_name, begin, end, 0, 0);
    for (std::size_t c = 0; c < n; ++c) spans.record(call_name, t0[c], t1[c], root, 0);
    return Metric{static_cast<double>(end - begin) / 1e9, "s"};
  };
  m["setup.synopsis_build_s"] =
      phase("setup.synopsis_build", "synopsis.builder.build", [&](std::size_t c) {
        structures[c].emplace(synopsis::SynopsisBuilder(bcfg).build(
            snaps[c]->docs(), &exec.group(exec.home_group(c))));
      });
  m["setup.aggregate_s"] =
      phase("setup.aggregate", "synopsis.aggregate_all", [&](std::size_t c) {
        (void)synopsis::aggregate_all(snaps[c]->docs(), structures[c]->index,
                                      synopsis::AggregationKind::kMerge,
                                      &exec.group(exec.home_group(c)));
      });
  m["setup.index_build_s"] =
      phase("setup.index_build", "search.index.build", [&](std::size_t c) {
        (void)search::InvertedIndex(snaps[c]->docs());
      });
}

void replay_updates(Fixture& mirror, std::uint64_t seed, SpanRecorder& spans,
                    Metrics& m) {
  common::Rng rng(seed ^ 0x75706474ull);
  for (std::size_t i = 0; i < kReplayUpdates; ++i) {
    const auto req = make_update(rng);
    const auto batch =
        synthesize_update(*mirror.search->component(req.update_component).snapshot(), req);
    const auto s = spans.open("synopsis.update", 0, kReplayIdBase * 2 + i);
    mirror.search->update_component(req.update_component, batch);
    spans.close(s);
  }
  const auto d = spans.durations_us("synopsis.update");
  m["synopsis.update_ms_p50"] = {pct(d, 50.0) / 1e3, "ms"};
  m["synopsis.update_ms_p99"] = {pct(d, 99.0) / 1e3, "ms"};
}

}  // namespace loadbench
