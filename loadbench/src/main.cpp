// loadbench: open-loop serving benchmark of the live server.
//
//   loadbench --workload <steady|hot_mixed|overload> --seed N --seconds S
//             --trace <0|1>
//
// Starts the server in its own process (set up several times; setup_s is
// the median), builds a mirror of the fixture, computes the exact top-10
// of every generated query, drives the server open-loop for S seconds and
// scores every answer. Prints each metric by name with its unit, then one
// JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 1 runs
// a second, traced pass and replays its requests through the layer calls;
// its JSON carries the per-layer metrics instead of the end-to-end ones.
// Exits 1 when a correctness check fails, 2 on bad usage or set-up.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_executor.h"
#include "loadbench/src/evaluate.h"
#include "loadbench/src/fixture.h"
#include "loadbench/src/generator.h"
#include "loadbench/src/layers.h"
#include "loadbench/src/schedule.h"
#include "loadbench/src/server_process.h"
#include "loadbench/src/stats.h"
#include "loadbench/src/trace.h"

namespace loadbench {
namespace {

namespace proto = at::server::protocol;

constexpr int kSetups = 5;
constexpr double kStealWarnPct = 2.0;
/// Fixed latencies of the search_within_<N>ms_pct shares. 5 ms is some 20
/// times the median search on the reference box, so its share counts the
/// requests that a stall, a queue or a failure pushed far into the tail;
/// it also reads how often the host stalls this VM for longer. 20 ms, a
/// generous deadline for an interactive search, is past nearly all of
/// those stalls, so its share moves with the program rather than the host.
/// A share at a fixed latency is far steadier than a high percentile,
/// which reads the length of the host's stalls.
constexpr double kWithin5Ms = 5.0;
constexpr double kWithin20Ms = 20.0;
/// Step latencies are medians over windows of this length: the box's
/// scheduling stalls of several ms then move a percentile only when they
/// hit half the windows.
constexpr double kWindowS = 1.0;
/// Request ids of the traced pass start here, so spans of the two passes
/// never share an id.
constexpr std::uint64_t kTracedIdBase = 1ull << 32;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         a->seconds <= 600.0 && a->trace >= 0;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

double pct_of(std::size_t part, std::size_t whole) {
  return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Everything one pass measured, before it is cut into JSON metrics.
struct Summary {
  std::vector<StepResult> steps;
  std::vector<std::size_t> step_searches;
  std::vector<double> step_p50, step_p90, step_p99, step_p999;  // p999 NaN when unsupported
  double within_5ms_pct = 0, within_20ms_pct = 0;  // first step's searches
  std::size_t attempted = 0, failed = 0, searches = 0;
  double search_p50 = 0, search_p99 = 0, search_p999 = NAN;
  double deadline_met_pct = 0, accuracy_pct = 0, failed_pct = 0;
  double recommend_p99 = NAN, update_p99 = NAN;
  double max_rps = 0;
  std::size_t tier_full = 0, tier_synopsis = 0, cached_fresh = 0,
              cached_stale = 0, shed = 0, expired = 0, errors = 0,
              transport = 0;
  double est_loss_error_pct = 0;
  double late_p99_ms = 0;
};

/// The q-th percentile when the sample supports it (tail_percentile), else
/// NaN (printed as n/a).
double percentile_or_nan(std::vector<double>& ok, std::size_t failed, double q) {
  return tail_percentile(ok.size() + failed) >= q ? percentile_failed_late(ok, failed, q)
                                                  : NAN;
}

Summary summarize(const WorkloadSpec& spec, const Schedule& sched,
                  const PassResult& pass, const std::vector<double>& overlaps,
                  std::size_t conns) {
  Summary s;
  const auto& ops = sched.ops;
  const std::size_t nsteps = spec.step_rps.size();
  std::vector<std::vector<double>> step_ok(nsteps);
  std::vector<std::size_t> step_failed(nsteps, 0), step_good(nsteps, 0);
  std::vector<Timed> timed;
  std::vector<double> all_ok, reco_ok, update_ok, late;
  std::size_t all_failed = 0, reco_failed = 0, update_failed = 0, met = 0;
  double overlap_sum = 0.0, loss_err_sum = 0.0;
  std::size_t degraded = 0;
  std::vector<std::int64_t> finishes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const Outcome& o = pass.outcomes[i];
    finishes.push_back(o.finish_ns);
    ++s.attempted;
    const double lat_ms =
        static_cast<double>(o.finish_ns - (pass.start_ns + op.due_ns)) / 1e6;
    if (!o.ok()) ++s.failed;
    if (o.ok() && lat_ms <= op.deadline_ms) ++met;
    if (o.expired) ++s.expired;
    if (o.transport_failed) ++s.transport;
    if (o.send_ns >= 0 && !o.expired && !o.transport_failed &&
        o.status != proto::Status::kOk && o.status != proto::Status::kShed)
      ++s.errors;
    if (o.send_ns >= 0) late.push_back(static_cast<double>(o.send_ns - (pass.start_ns + op.due_ns)) / 1e6);
    if (op.kind == OpKind::kRecommend) {
      o.ok() ? reco_ok.push_back(lat_ms) : void(++reco_failed);
      continue;
    }
    if (op.kind == OpKind::kUpdate) {
      o.ok() ? update_ok.push_back(lat_ms) : void(++update_failed);
      continue;
    }
    ++s.searches;
    overlap_sum += overlaps[i];
    timed.push_back({static_cast<double>(op.due_ns) / 1e9, o.ok() ? lat_ms : kInf});
    if (o.ok()) {
      step_ok[op.step].push_back(lat_ms);
      all_ok.push_back(lat_ms);
      if (lat_ms <= spec.deadline_ms) ++step_good[op.step];
      switch (o.tier) {
        case proto::Tier::kFull: ++s.tier_full; break;
        case proto::Tier::kSynopsis: ++s.tier_synopsis; break;
        case proto::Tier::kCached:
          (o.est_loss_pct == 0.0 ? s.cached_fresh : s.cached_stale)++;
          break;
        case proto::Tier::kNone: break;
      }
      if (o.tier != proto::Tier::kFull || o.est_loss_pct > 0.0) {
        ++degraded;
        loss_err_sum += std::abs(o.est_loss_pct - (1.0 - overlaps[i]) * 100.0);
      }
    } else {
      ++step_failed[op.step];
      ++all_failed;
      if (o.status == proto::Status::kShed && !o.expired && !o.transport_failed) ++s.shed;
    }
  }
  std::sort(finishes.begin(), finishes.end());
  const auto outstanding = [&](double rel_s) {
    const std::int64_t t = pass.start_ns + static_cast<std::int64_t>(rel_s * 1e9);
    const auto due = std::upper_bound(ops.begin(), ops.end(), t - pass.start_ns,
                                      [](std::int64_t v, const Op& op) { return v < op.due_ns; }) -
                     ops.begin();
    const auto done = std::upper_bound(finishes.begin(), finishes.end(), t) - finishes.begin();
    return static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, due - done));
  };
  for (std::size_t k = 0; k < nsteps; ++k) {
    StepResult r;
    r.offered_rps = spec.step_rps[k];
    const double b = sched.step_begin_s[k], e = sched.step_begin_s[k + 1];
    s.step_p50.push_back(windowed_percentile(timed, b, e, kWindowS, 50.0));
    s.step_p90.push_back(windowed_percentile(timed, b, e, kWindowS, 90.0));
    s.step_p99.push_back(windowed_percentile(timed, b, e, kWindowS, 99.0));
    if (k == 0) {
      s.within_5ms_pct = windowed_share_within(timed, b, e, kWindowS, kWithin5Ms);
      // Over the whole step, as one window: few stalls reach 20 ms, and a
      // per-window median would read 100 on nearly every run.
      s.within_20ms_pct = windowed_share_within(timed, b, e, e - b, kWithin20Ms);
    }
    r.tail_ms = s.step_p90.back();
    r.goodput_rps = static_cast<double>(step_good[k]) / (e - b);
    r.outstanding_mid = outstanding((b + e) / 2);
    r.outstanding_end = outstanding(e);
    s.steps.push_back(r);
    s.step_searches.push_back(step_ok[k].size() + step_failed[k]);
    s.step_p999.push_back(percentile_or_nan(step_ok[k], step_failed[k], 99.9));
  }
  const int best = highest_passing_step(s.steps, spec.deadline_ms, conns);
  s.max_rps = best < 0 ? 0.0 : s.steps[static_cast<std::size_t>(best)].goodput_rps;
  s.search_p50 = percentile_failed_late(all_ok, all_failed, 50.0);
  s.search_p99 = percentile_failed_late(all_ok, all_failed, 99.0);
  s.search_p999 = percentile_or_nan(all_ok, all_failed, 99.9);
  if (!reco_ok.empty() || reco_failed) s.recommend_p99 = percentile_failed_late(reco_ok, reco_failed, 99.0);
  if (!update_ok.empty() || update_failed) s.update_p99 = percentile_failed_late(update_ok, update_failed, 99.0);
  const double n = std::max<double>(1.0, static_cast<double>(s.attempted));
  s.deadline_met_pct = 100.0 * static_cast<double>(met) / n;
  s.failed_pct = 100.0 * static_cast<double>(s.failed) / n;
  s.accuracy_pct = s.searches ? 100.0 * overlap_sum / static_cast<double>(s.searches) : 0.0;
  s.est_loss_error_pct = degraded ? loss_err_sum / static_cast<double>(degraded) : 0.0;
  s.late_p99_ms = late.empty() ? 0.0 : percentile_failed_late(late, 0, 99.0);
  return s;
}

std::string num(double v) {
  if (std::isnan(v)) return "n/a";
  if (std::isinf(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void print_metric(const std::string& name, double v, const char* unit) {
  std::cout << "metric " << name << " = " << num(v) << " " << unit << "\n";
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "loadbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // ppoll wakes on time
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t conns = nproc;

  std::cout << "loadbench workload=" << spec->name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  std::cout << "machine nproc=" << nproc << " cpu=\"" << cpu_model() << "\"\n";
  if (nproc != kNominalNproc)
    std::cout << "WARNING: offered rates are fixed for a " << kNominalNproc
              << "-core box; these numbers are not comparable with runs there\n";
  std::cout << "offered rates (req/s):";
  for (const double r : spec->step_rps) std::cout << " " << r;
  std::cout << "; deadline " << spec->deadline_ms << " ms; recommend "
            << spec->recommend_fraction * 100 << "%; updates " << spec->updates_per_s
            << "/s; connections " << conns << "\n";

  // A traced run splits its time between an untraced and a traced pass.
  const std::size_t npasses = args.trace ? 2 : 1;
  const auto scheds = make_schedules(*spec, args.seed,
                                     args.seconds / static_cast<double>(npasses), npasses);
  std::cout << "step starts (s):";
  for (const double b : scheds[0].step_begin_s) std::cout << " " << num(b);
  std::cout << (npasses > 1 ? " (each of 2 passes)\n" : "\n");
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();

  std::vector<double> setup_s, start_s;
  for (int k = 0; k + 1 < kSetups; ++k) {
    ServerProcess probe(exe);
    setup_s.push_back(probe.ready().setup_s);
    start_s.push_back(probe.ready().server_start_s);
    probe.stop();
  }
  ServerProcess server(exe);
  setup_s.push_back(server.ready().setup_s);
  start_s.push_back(server.ready().server_start_s);

  at::common::ShardedExecutor exec;
  Fixture mirror = build_fixture(exec);
  const References refs = compute_references(scheds, mirror, exec);

  const HostTicks ticks_before = read_host_ticks();
  std::vector<PassResult> passes;
  std::vector<double> server_cpu_s;  // the server's CPU time in each pass
  SpanRecorder spans;
  for (std::size_t p = 0; p < npasses; ++p) {
    const double cpu_before = server.cpu_seconds();
    passes.push_back(run_pass(server.ready().port, scheds[p], conns, p ? &spans : nullptr,
                              p ? kTracedIdBase : 0));
    server_cpu_s.push_back(server.cpu_seconds() - cpu_before);
  }
  const double steal_pct = steal_pct_between(ticks_before, read_host_ticks());
  const ServerFinal fin = server.stop();

  const Evaluation ev = evaluate(scheds, passes, mirror, refs);
  std::vector<Summary> sums;
  for (std::size_t p = 0; p < npasses; ++p)
    sums.push_back(summarize(*spec, scheds[p], passes[p], ev.overlap[p], conns));
  const Summary& s = sums[0];

  std::cout << "host steal during the load: " << num(steal_pct) << "% of CPU time\n";
  if (steal_pct > kStealWarnPct)
    std::cout << "WARNING: the host took more than " << kStealWarnPct
              << "% of this VM's CPU time; latencies of this run are suspect\n";
  std::cout << "setup runs (s):";
  for (const double v : setup_s) std::cout << " " << num(v);
  std::cout << "\nsteps (offered req/s -> searches, p50 / p90 / p99 ms (each the median of "
            << kWindowS << " s windows) / p99.9 ms, goodput req/s, outstanding mid/end):\n";
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    const auto& st = s.steps[k];
    std::cout << "  " << st.offered_rps << " -> " << s.step_searches[k] << ", "
              << num(s.step_p50[k]) << " / " << num(s.step_p90[k]) << " / " << num(s.step_p99[k]) << " / "
              << num(s.step_p999[k]) << ", " << num(st.goodput_rps) << ", "
              << st.outstanding_mid << "/" << st.outstanding_end << "\n";
  }
  const auto cpu_us_per_op = [&](std::size_t p) {
    return 1e6 * server_cpu_s[p] / static_cast<double>(std::max<std::size_t>(1, sums[p].attempted));
  };
  // The headline latencies are those of the first step: a fixed rate the
  // box can carry, so failures do not make them infinite.
  const double p50 = s.step_p50[0], p90 = s.step_p90[0], p99 = s.step_p99[0];
  print_metric("setup_s", median(setup_s), "s");
  print_metric("search_p50_ms", p50, "ms");
  print_metric("search_p90_ms", p90, "ms");
  print_metric("search_within_5ms_pct", s.within_5ms_pct, "%");
  print_metric("search_within_20ms_pct", s.within_20ms_pct, "%");
  print_metric("search_p99_ms", p99, "ms");
  print_metric("search_p999_ms", s.step_p999[0], "ms");
  print_metric("search_all_steps_p50_ms", s.search_p50, "ms");
  print_metric("search_all_steps_p99_ms", s.search_p99, "ms");
  print_metric("search_all_steps_p999_ms", s.search_p999, "ms");
  print_metric("deadline_met_pct", s.deadline_met_pct, "%");
  print_metric("accuracy_pct", s.accuracy_pct, "%");
  print_metric("failed_pct", s.failed_pct, "%");
  print_metric("max_rps", s.max_rps, "req/s");
  print_metric("recommend_p99_ms", s.recommend_p99, "ms");
  print_metric("update_p99_ms", s.update_p99, "ms");
  print_metric("peak_rss_mb", fin.peak_rss_mb, "MB");
  print_metric("server_cpu_us_per_op", cpu_us_per_op(0), "us");
  std::cout << "failed ops: " << s.expired << " expired before sending, " << s.shed
            << " searches shed, " << s.errors << " errors, " << s.transport
            << " transport failures\n";
  std::cout << "searches " << s.searches << ", updates applied " << ev.updates_applied
            << ", correctness failures " << ev.gate_failures << "\n";
  for (const auto& m : ev.messages) std::cout << "CORRECTNESS: " << m << "\n";

  Metrics out;
  const auto put = [&out](const std::string& k, double v, const char* unit) {
    out[k] = Metric{v, unit};
  };
  if (!args.trace) {
    put("setup_s", median(setup_s), "s");
    put("search_within_20ms_pct", s.within_20ms_pct, "%");
    put("accuracy_pct", s.accuracy_pct, "%");
    put("peak_rss_mb", fin.peak_rss_mb, "MB");
  } else {
    const Summary& t = sums[1];
    replay_query_layers(scheds[1], mirror, args.seed, spans, out);
    replay_cache(scheds[1], passes[1], refs.search[1], spans, out);
    replay_setup_layers(mirror, exec, spans, out);
    replay_updates(mirror, args.seed, spans, out);
    const std::size_t ts = std::max<std::size_t>(1, t.searches);
    std::vector<double> transport = spans.self_us("gen.request");
    std::vector<double> in_server = spans.durations_us("server");
    for (auto& v : in_server) v /= 1e3;
    const auto p = [](std::vector<double> v, double q) {
      return v.empty() ? 0.0 : percentile_failed_late(v, 0, q);
    };
    put("server.transport_us_p50", p(transport, 50.0), "us");
    put("server.in_server_ms_p50", p(in_server, 50.0), "ms");
    put("server.in_server_ms_p99", p(in_server, 99.0), "ms");
    put("server.tier_full_pct", pct_of(t.tier_full, ts), "%");
    put("server.tier_synopsis_pct", pct_of(t.tier_synopsis, ts), "%");
    put("server.tier_cached_fresh_pct", pct_of(t.cached_fresh, ts), "%");
    put("server.tier_cached_stale_pct", pct_of(t.cached_stale, ts), "%");
    put("server.shed_pct", pct_of(t.shed, ts), "%");
    put("server.est_loss_error_pct", t.est_loss_error_pct, "%");
    put("server.cpu_us_per_op", cpu_us_per_op(1), "us");
    put("epoch.published", static_cast<double>(fin.epoch_published), "count");
    put("epoch.unretired", static_cast<double>(fin.epoch_published - fin.epoch_retired), "count");
    put("setup.server_start_s", median(start_s), "s");
    put("gen.late_p99_ms", t.late_p99_ms, "ms");
    put("gen.expired", static_cast<double>(spans.count("gen.expired")), "count");
    // 0 when either pass's median fell on failures: there is no latency
    // to compare then.
    const double overhead = 100.0 * (t.step_p50[0] - s.step_p50[0]) / s.step_p50[0];
    put("trace.overhead_pct", std::isfinite(overhead) ? overhead : 0.0, "%");
    for (const auto& [k, m] : out) print_metric(k, m.value, m.unit.c_str());

    std::filesystem::create_directories(".bench_build/traces");
    const std::string path = ".bench_build/traces/" + spec->name + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (spans.write(path)) std::cout << "spans: " << spans.spans().size() << " written to " << path << "\n";
  }

  for (const auto& [k, m] : out) {
    if (!std::isfinite(m.value)) {
      std::cerr << "loadbench: metric " << k << " is not a finite number; no result\n";
      return 2;
    }
  }
  const bool correct = ev.gate_failures == 0;
  std::size_t attempted = 0, failed = 0;
  for (const auto& x : sums) {
    attempted += x.attempted;
    failed += x.failed;
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, m] : out) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    js << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace loadbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--serve") == 0) return loadbench::serve_main();
  loadbench::Args args;
  if (!loadbench::parse(argc, argv, &args)) {
    std::cerr << "usage: loadbench --workload <steady|hot_mixed|overload> "
                 "--seed N --seconds S --trace <0|1>\n";
    return 2;
  }
  try {
    return loadbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "loadbench: " << e.what() << "\n";
    return 2;
  }
}
