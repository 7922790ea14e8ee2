#include "loadbench/src/generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <fstream>
#include <stdexcept>
#include <string>

namespace loadbench {

namespace proto = at::server::protocol;

namespace {

constexpr std::int64_t kLeadNs = 20'000'000;     // first op due after connect
constexpr std::int64_t kDrainNs = 5'000'000'000;  // give up on stragglers

int open_connection(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Conn {
  int fd = -1;
  std::int64_t op = -1;  // op index in flight, -1 when idle
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  proto::FrameBuffer in;
};

/// Writes what the socket takes now; false on a transport error.
bool flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_pos += static_cast<std::size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

proto::Op wire_op(OpKind k) {
  switch (k) {
    case OpKind::kSearch: return proto::Op::kSearch;
    case OpKind::kRecommend: return proto::Op::kRecommend;
    case OpKind::kUpdate: return proto::Op::kUpdate;
  }
  return proto::Op::kPing;
}

}  // namespace

HostTicks read_host_ticks() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  HostTicks t;
  double v = 0.0;
  for (int i = 0; i < 8 && is >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_pct_between(const HostTicks& a, const HostTicks& b) {
  const double total = b.total - a.total;
  return total > 0.0 ? 100.0 * (b.steal - a.steal) / total : 0.0;
}

PassResult run_pass(std::uint16_t port, const Schedule& sched,
                    std::size_t connections, SpanRecorder* spans,
                    std::uint64_t request_base) {
  const auto& ops = sched.ops;
  const std::size_t n = ops.size();
  PassResult res;
  res.outcomes.resize(n);
  std::vector<Conn> conns(connections);
  for (auto& c : conns) {
    c.fd = open_connection(port);
    if (c.fd < 0) throw std::runtime_error("cannot connect to the server");
  }

  res.start_ns = now_ns() + kLeadNs;
  const std::int64_t t0 = res.start_ns;
  std::size_t next = 0, finished = 0;
  std::deque<std::size_t> backlog, update_backlog;
  bool update_in_flight = false;

  const auto finish = [&](std::size_t i, std::int64_t t) {
    Outcome& o = res.outcomes[i];
    o.finish_ns = t;
    ++finished;
    if (spans == nullptr) return;
    const std::uint64_t req = request_base + i + 1;
    const std::int64_t due = t0 + ops[i].due_ns;
    const auto root =
        spans->record(o.send_ns >= 0 ? "gen.request" : "gen.expired", due, t, 0, req);
    spans->record("gen.wait", due, o.send_ns >= 0 ? o.send_ns : t, root, req);
    if (o.send_ns >= 0 && !o.transport_failed) {
      // The server reports only its interval's length; centre it in the
      // round trip, leaving the rest to transport on either side.
      const std::int64_t srv = static_cast<std::int64_t>(o.server_ms * 1e6);
      const std::int64_t start = o.send_ns + std::max<std::int64_t>(0, (t - o.send_ns - srv) / 2);
      spans->record("server", start, std::min(t, start + srv), root, req);
    }
  };
  const auto fail_conn = [&](Conn& c, std::int64_t t) {
    if (c.op >= 0) {
      const auto i = static_cast<std::size_t>(c.op);
      res.outcomes[i].transport_failed = true;
      if (ops[i].kind == OpKind::kUpdate) update_in_flight = false;
      finish(i, t);
    }
    ::close(c.fd);
    c = Conn{};
    c.fd = open_connection(port);
  };

  std::vector<pollfd> pfds;
  std::vector<Conn*> pconn;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[65536];
  while (finished < n) {
    std::int64_t now = now_ns();
    for (; next < n && t0 + ops[next].due_ns <= now; ++next)
      (ops[next].kind == OpKind::kUpdate ? update_backlog : backlog).push_back(next);

    for (auto& c : conns) {
      while (c.fd >= 0 && c.op < 0) {
        const bool upd = !update_in_flight && !update_backlog.empty() &&
                         (backlog.empty() ||
                          ops[update_backlog.front()].due_ns <
                              ops[backlog.front()].due_ns);
        if (!upd && backlog.empty()) break;
        auto& q = upd ? update_backlog : backlog;
        const std::size_t i = q.front();
        q.pop_front();
        const Op& op = ops[i];
        const double late_ms = static_cast<double>(now - (t0 + op.due_ns)) / 1e6;
        const double budget = std::floor(static_cast<double>(op.deadline_ms) - late_ms);
        if (budget < 1.0) {
          res.outcomes[i].expired = true;
          finish(i, now);
          continue;
        }
        proto::Request req;
        if (op.kind == OpKind::kSearch) {
          req.terms = sched.queries[op.item].terms;
          req.k = 10;
        } else if (op.kind == OpKind::kRecommend) {
          req = sched.recos[op.item];
        } else {
          req = sched.updates[op.item];
          update_in_flight = true;
        }
        req.op = wire_op(op.kind);
        req.request_id = request_base + i + 1;
        req.deadline_ms = static_cast<std::uint32_t>(budget);
        c.out = proto::encode_request(req);
        c.out_pos = 0;
        c.op = static_cast<std::int64_t>(i);
        res.outcomes[i].send_ns = now;
        if (!flush(c)) fail_conn(c, now_ns());
      }
    }

    if (next == n && now > t0 + (n ? ops[n - 1].due_ns : 0) + kDrainNs) {
      for (auto& c : conns) fail_conn(c, now);
      for (auto* q : {&backlog, &update_backlog})
        for (const std::size_t i : *q) {
          res.outcomes[i].expired = true;
          finish(i, now);
        }
      backlog.clear();
      update_backlog.clear();
      continue;
    }

    pfds.clear();
    pconn.clear();
    for (auto& c : conns) {
      if (c.fd < 0 || c.op < 0) continue;
      pfds.push_back(pollfd{c.fd,
                            static_cast<short>(POLLIN | (c.out_pos < c.out.size() ? POLLOUT : 0)),
                            0});
      pconn.push_back(&c);
    }
    std::int64_t wait = 50'000'000;
    if (next < n) wait = std::max<std::int64_t>(0, t0 + ops[next].due_ns - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      Conn& c = *pconn[k];
      const short ev = pfds[k].revents;
      if (ev == 0) continue;
      if ((ev & POLLOUT) && !flush(c)) {
        fail_conn(c, now_ns());
        continue;
      }
      if (!(ev & (POLLIN | POLLERR | POLLHUP))) continue;
      bool broken = false;
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        broken = true;  // peer closed or hard error
        break;
      }
      const std::int64_t t = now_ns();
      for (;;) {
        const auto pulled = c.in.pull(&payload);
        if (pulled == proto::FrameBuffer::Pull::kNeedMore) break;
        if (pulled == proto::FrameBuffer::Pull::kBad || c.op < 0) {
          broken = true;
          break;
        }
        const auto i = static_cast<std::size_t>(c.op);
        proto::Response resp;
        resp.op = wire_op(ops[i].kind);
        std::string err;
        if (!proto::decode_response(payload.data(), payload.size(), &resp, &err) ||
            resp.request_id != request_base + i + 1) {
          broken = true;
          break;
        }
        Outcome& o = res.outcomes[i];
        o.status = resp.status;
        o.tier = resp.tier;
        o.est_loss_pct = resp.est_loss_pct;
        o.server_ms = resp.server_ms;
        o.docs = std::move(resp.docs);
        o.prediction = resp.prediction;
        if (ops[i].kind == OpKind::kUpdate) update_in_flight = false;
        c.op = -1;
        finish(i, t);
      }
      if (broken) fail_conn(c, t);
    }
  }
  for (auto& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  return res;
}

}  // namespace loadbench
