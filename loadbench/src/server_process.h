// The server under test runs in a child process of its own (this binary
// re-executed with --serve), so the generator's work never shares an
// address space, allocator or scheduler queue position with it.
//
// Child protocol on stdout, one line each:
//   LISTENING <port> <setup_s> <server_start_s>   once the port listens
//   FINAL <published> <retired> <vmhwm_kb>        after stdin reaches EOF
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace loadbench {

struct ServerReady {
  std::uint16_t port = 0;
  double setup_s = 0.0;         // fixture build + Server::start
  double server_start_s = 0.0;  // Server::start alone (includes calibration)
};

struct ServerFinal {
  std::uint64_t epoch_published = 0;
  std::uint64_t epoch_retired = 0;
  double peak_rss_mb = 0.0;  // VmHWM
};

class ServerProcess {
 public:
  /// Spawns `exe --serve` and waits for its LISTENING line.
  explicit ServerProcess(const std::string& exe);
  /// Kills the child if it is still running and reaps it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  const ServerReady& ready() const { return ready_; }
  /// CPU time (user + system) the child's threads, live and exited, have
  /// used so far, in seconds, from the process's CPU-time clock.
  double cpu_seconds() const;

  /// Closes the child's stdin (its stop signal), reads its FINAL line and
  /// reaps it. Throws if the child does not exit cleanly.
  ServerFinal stop();

 private:
  std::string read_line(int timeout_ms);
  void kill_and_reap();

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string pending_;
  ServerReady ready_;
};

/// Body of the child: builds the fixture, starts the server, prints the
/// LISTENING line, serves until stdin closes, then prints FINAL.
int serve_main();

}  // namespace loadbench
