#include "loadbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace loadbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t SpanRecorder::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::int64_t>(i);
  return -1;
}

std::uint32_t SpanRecorder::record(std::string_view name, std::int64_t start_ns,
                                   std::int64_t end_ns, std::uint32_t parent,
                                   std::uint64_t request) {
  spans_.push_back(Span{intern(name), parent, request, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size());
}

std::size_t SpanRecorder::count(std::string_view name) const {
  const auto id = find(name);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [id](const Span& s) { return static_cast<std::int64_t>(s.name) == id; }));
}

std::vector<double> SpanRecorder::durations_us(std::string_view name) const {
  std::vector<double> out;
  const auto id = find(name);
  for (const auto& s : spans_)
    if (static_cast<std::int64_t>(s.name) == id)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  return out;
}

std::vector<double> SpanRecorder::self_us(std::string_view name) const {
  const auto id = find(name);
  if (id < 0) return {};
  // Children of the named spans, grouped by parent id.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size() + 1);
  for (const auto& s : spans_) {
    if (s.parent == 0 || s.parent > spans_.size()) continue;
    if (static_cast<std::int64_t>(spans_[s.parent - 1].name) == id)
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (static_cast<std::int64_t>(s.name) != id) continue;
    auto& iv = kids[i + 1];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, cursor);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream os(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << "{\"id\": " << i + 1 << ", \"name\": \"" << names_[s.name]
       << "\", \"parent\": " << s.parent << ", \"request\": " << s.request
       << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}\n";
  }
  return static_cast<bool>(os);
}

}  // namespace loadbench
