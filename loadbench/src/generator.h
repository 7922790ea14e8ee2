// The open-loop load generator: one thread, at most nproc non-blocking
// connections, public protocol framing only (no retrying client).
//
// Rules:
//  * every op is timed from its due time, not from when it was sent;
//  * an op waits in the generator's FIFO until a connection is free (the
//    server answers one request per connection at a time), and carries
//    the user's remaining budget: its deadline minus how late it is sent,
//    floored to whole ms;
//  * an op whose budget is below 1 ms is not sent and counts as failed
//    (the server reads deadline 0 as "use the default");
//  * no retries: a shed is a failure;
//  * at most one update is in flight, so updates reach the server in
//    schedule order and the mirror can replay them in the same order.
#pragma once

#include <cstdint>
#include <vector>

#include "loadbench/src/schedule.h"
#include "loadbench/src/trace.h"
#include "server/protocol.h"

namespace loadbench {

struct Outcome {
  std::int64_t send_ns = -1;    // -1: never sent
  std::int64_t finish_ns = -1;  // response read, expiry or transport failure
  bool expired = false;         // budget ran out in the generator's queue
  bool transport_failed = false;
  at::server::protocol::Status status = at::server::protocol::Status::kError;
  at::server::protocol::Tier tier = at::server::protocol::Tier::kNone;
  double est_loss_pct = 0.0;
  double server_ms = 0.0;
  std::vector<at::search::ScoredDoc> docs;
  double prediction = 0.0;

  bool ok() const {
    return !expired && !transport_failed &&
           status == at::server::protocol::Status::kOk;
  }
};

struct PassResult {
  std::vector<Outcome> outcomes;  // parallel to Schedule::ops
  std::int64_t start_ns = 0;      // steady-clock time of due offset 0
};

/// Cumulative CPU ticks of this VM from /proc/stat: all of them, and those
/// the host took for its other guests ("steal").
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};
HostTicks read_host_ticks();
/// Steal share (%) of the CPU time between two readings.
double steal_pct_between(const HostTicks& a, const HostTicks& b);

/// Runs one schedule against 127.0.0.1:port. With `spans` set, records a
/// request span per op (due -> finish) with the generator wait and the
/// server interval as children. Throws when no connection can be opened.
PassResult run_pass(std::uint16_t port, const Schedule& sched,
                    std::size_t connections, SpanRecorder* spans,
                    std::uint64_t request_base);

}  // namespace loadbench
