#include "loadbench/src/server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/sharded_executor.h"
#include "loadbench/src/fixture.h"
#include "server/server.h"

extern char** environ;

namespace loadbench {

namespace {

constexpr int kReadyTimeoutMs = 120'000;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double vm_hwm_kb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  return 0.0;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& exe) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out, O_CLOEXEC) != 0) {
    ::close(in[0]);
    ::close(in[1]);
    throw std::runtime_error("pipe failed");
  }
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
  for (const int fd : {in[0], in[1], out[0], out[1]})
    posix_spawn_file_actions_addclose(&fa, fd);
  std::string arg0 = exe, arg1 = "--serve";
  char* argv[] = {arg0.data(), arg1.data(), nullptr};
  const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(in[0]);
  ::close(out[1]);
  to_child_ = in[1];
  from_child_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn the server process");
  }
  try {
    std::istringstream ls(read_line(kReadyTimeoutMs));
    std::string tag;
    unsigned port = 0;
    ls >> tag >> port >> ready_.setup_s >> ready_.server_start_s;
    if (tag != "LISTENING" || port == 0 || !ls)
      throw std::runtime_error("server process did not start");
    ready_.port = static_cast<std::uint16_t>(port);
  } catch (...) {
    kill_and_reap();
    throw;
  }
}

ServerProcess::~ServerProcess() { kill_and_reap(); }

double ServerProcess::cpu_seconds() const {
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0)
    throw std::runtime_error("cannot read the server's CPU time");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void ServerProcess::kill_and_reap() {
  if (to_child_ >= 0) ::close(to_child_);
  to_child_ = -1;
  if (from_child_ >= 0) ::close(from_child_);
  from_child_ = -1;
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
}

std::string ServerProcess::read_line(int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto nl = pending_.find('\n');
    if (nl != std::string::npos) {
      std::string line = pending_.substr(0, nl);
      pending_.erase(0, nl + 1);
      return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) throw std::runtime_error("server process timed out");
    pollfd p{from_child_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left)) <= 0) continue;
    char buf[4096];
    const ssize_t r = ::read(from_child_, buf, sizeof buf);
    if (r <= 0) throw std::runtime_error("server process exited early");
    pending_.append(buf, static_cast<std::size_t>(r));
  }
}

ServerFinal ServerProcess::stop() {
  ::close(to_child_);
  to_child_ = -1;
  std::istringstream ls(read_line(60'000));
  std::string tag;
  ServerFinal f;
  double hwm_kb = 0.0;
  ls >> tag >> f.epoch_published >> f.epoch_retired >> hwm_kb;
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (tag != "FINAL" || !ls || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("server process did not stop cleanly");
  f.peak_rss_mb = hwm_kb / 1024.0;
  return f;
}

int serve_main() {
  using namespace at;
  const auto t0 = std::chrono::steady_clock::now();
  common::ShardedExecutor exec;
  Fixture fx = build_fixture(exec);
  server::ServerConfig scfg;
  scfg.calibration_queries = fx.calibration;
  server::Server srv(*fx.search, fx.reco.get(), exec, scfg);
  const auto t_start = std::chrono::steady_clock::now();
  srv.start();
  const double start_s = seconds_since(t_start);
  const double setup_s = seconds_since(t0);
  std::printf("LISTENING %u %.9f %.9f\n", static_cast<unsigned>(srv.port()),
              setup_s, start_s);
  std::fflush(stdout);

  char buf[256];
  while (::read(STDIN_FILENO, buf, sizeof buf) > 0) {
  }
  srv.stop();
  const auto snap = srv.snapshot();
  std::printf("FINAL %llu %llu %.0f\n",
              static_cast<unsigned long long>(snap.epoch_published),
              static_cast<unsigned long long>(snap.epoch_retired), vm_hwm_kb());
  std::fflush(stdout);
  return 0;
}

}  // namespace loadbench
