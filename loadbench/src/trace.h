// In-memory span recorder of the traced run. A span is one timed interval
// at a layer boundary: name, start, end, the span that caused it, and the
// request it belongs to. Spans stay in memory while the benchmark runs and
// are written out as JSON lines when it ends; layer self times and counts
// are derived from them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace loadbench {

struct Span {
  std::uint32_t name = 0;    // index into SpanRecorder::names()
  std::uint32_t parent = 0;  // id of the causing span; 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Steady-clock nanoseconds: the one clock every span and op time uses.
std::int64_t now_ns();

class SpanRecorder {
 public:
  /// Opens a span starting now; close() sets its end.
  std::uint32_t open(std::string_view name, std::uint32_t parent,
                     std::uint64_t request) {
    const std::int64_t t = now_ns();
    return record(name, t, t, parent, request);
  }
  void close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

  /// Records one span and returns its id (>= 1). Callers that are not
  /// tracing hold no recorder at all, so this never branches on a flag.
  std::uint32_t record(std::string_view name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint32_t parent,
                       std::uint64_t request);

  std::size_t count(std::string_view name) const;
  /// Durations of every span with this name, in microseconds.
  std::vector<double> durations_us(std::string_view name) const;
  /// Self times in microseconds: each span's duration minus the part of
  /// it that its child spans cover.
  std::vector<double> self_us(std::string_view name) const;

  /// One JSON object per line: id, name, parent, request, start/end ns.
  bool write(const std::string& path) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t intern(std::string_view name);
  std::int64_t find(std::string_view name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

}  // namespace loadbench
