#include "loadbench/src/evaluate.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "loadbench/src/stats.h"

namespace loadbench {

using namespace at;
namespace proto = server::protocol;

namespace {

reco::CfRequest to_cf_request(const proto::Request& r) {
  // Built exactly as the server builds it from the wire.
  synopsis::SparseVector ratings(r.ratings.begin(), r.ratings.end());
  std::sort(ratings.begin(), ratings.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return reco::CfRequest::make(std::move(ratings), r.target_item);
}

struct AppliedUpdate {
  std::int64_t send_ns;
  std::int64_t finish_ns;
  const proto::Request* req;
};

}  // namespace

References compute_references(const std::vector<Schedule>& scheds,
                              Fixture& mirror, at::common::ShardedExecutor& exec) {
  // Sequential scans (no executor) from one thread per core: the answer of
  // the sequential component-order merge is the definition of exact, and
  // SearchService::exact_topk is const and safe to call concurrently.
  mirror.search->set_executor(nullptr);
  References refs;
  const unsigned nthreads = std::max(1u, std::thread::hardware_concurrency());
  for (const auto& s : scheds) {
    auto& q = refs.search.emplace_back(s.queries.size());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nthreads; ++t)
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < s.queries.size(); i += nthreads)
          q[i] = mirror.search->exact_topk(s.queries[i]);
      });
    for (auto& th : threads) th.join();
    auto& r = refs.reco.emplace_back();
    for (const auto& req : s.recos)
      r.push_back(mirror.reco->predict_exact(to_cf_request(req)));
  }
  mirror.search->set_executor(&exec);
  return refs;
}

Evaluation evaluate(const std::vector<Schedule>& scheds,
                    const std::vector<PassResult>& passes, Fixture& mirror,
                    const References& refs) {
  Evaluation ev;
  const auto fail = [&ev](const std::string& msg) {
    if (ev.messages.size() < 5) ev.messages.push_back(msg);
    ++ev.gate_failures;
  };

  // Applied updates, in the order the server applied them.
  std::vector<AppliedUpdate> applied;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto& ops = scheds[p].ops;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kUpdate) continue;
      const Outcome& o = passes[p].outcomes[i];
      if (o.transport_failed ||
          (o.send_ns >= 0 && !o.expired && o.status == proto::Status::kError))
        throw std::runtime_error("an update's outcome is unknown");
      if (o.ok())
        applied.push_back({o.send_ns, o.finish_ns, &scheds[p].updates[ops[i].item]});
    }
  }
  std::sort(applied.begin(), applied.end(),
            [](const auto& a, const auto& b) { return a.send_ns < b.send_ns; });
  ev.updates_applied = applied.size();
  std::vector<std::int64_t> sends, finishes;
  for (const auto& u : applied) {
    sends.push_back(u.send_ns);
    finishes.push_back(u.finish_ns);
  }

  // Epoch range of every answered search; collect the (epoch, pass, item)
  // answers needed beyond epoch 0.
  struct Range {
    std::size_t lo = 0, hi = 0;
  };
  std::vector<std::vector<Range>> ranges(passes.size());
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, Answer> later;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto& ops = scheds[p].ops;
    ranges[p].resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Outcome& o = passes[p].outcomes[i];
      if (ops[i].kind != OpKind::kSearch || !o.ok()) continue;
      Range r;
      r.lo = static_cast<std::size_t>(
          std::lower_bound(finishes.begin(), finishes.end(), o.send_ns) - finishes.begin());
      r.hi = static_cast<std::size_t>(
          std::lower_bound(sends.begin(), sends.end(), o.finish_ns) - sends.begin());
      ranges[p][i] = r;
      for (std::size_t e = std::max<std::size_t>(1, r.lo); e <= r.hi; ++e)
        later.emplace(std::make_tuple(e, p, static_cast<std::size_t>(ops[i].item)), Answer{});
    }
  }
  std::size_t epoch = 0;
  for (auto& [key, answer] : later) {
    const auto [e, p, item] = key;
    for (; epoch < e; ++epoch) {
      const auto& req = *applied[epoch].req;
      auto& comp = mirror.search->component(req.update_component);
      mirror.search->update_component(req.update_component,
                                      synthesize_update(*comp.snapshot(), req));
    }
    answer = mirror.search->exact_topk(scheds[p].queries[item]);
  }

  ev.overlap.resize(passes.size());
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const auto& ops = scheds[p].ops;
    ev.overlap[p].assign(ops.size(), -1.0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Outcome& o = passes[p].outcomes[i];
      const Op& op = ops[i];
      if (op.kind == OpKind::kRecommend) {
        if (o.ok() && o.tier == proto::Tier::kFull && o.est_loss_pct == 0.0 &&
            o.prediction != refs.reco[p][op.item]) {
          std::ostringstream m;
          m << "recommend op " << i << ": full-tier prediction " << o.prediction
            << " != exact " << refs.reco[p][op.item];
          fail(m.str());
        }
        continue;
      }
      if (op.kind != OpKind::kSearch) continue;
      if (!o.ok()) {
        ev.overlap[p][i] = 0.0;
        continue;
      }
      const Range r = ranges[p][i];
      double best = 0.0;
      bool exact = false;
      for (std::size_t e = r.lo; e <= r.hi; ++e) {
        const Answer& ref = e == 0 ? refs.search[p][op.item]
                                   : later.at(std::make_tuple(e, p, static_cast<std::size_t>(op.item)));
        best = std::max(best, overlap(o.docs, ref));
        exact = exact || same_answer(o.docs, ref);
      }
      ev.overlap[p][i] = best;
      if (o.tier == proto::Tier::kFull && o.est_loss_pct == 0.0 && !exact) {
        std::ostringstream m;
        m << "search op " << i << " (pass " << p << "): full-tier answer with "
          << "est-loss 0 differs from the exact answer (overlap " << best << ")";
        fail(m.str());
      }
    }
  }
  return ev;
}

}  // namespace loadbench
