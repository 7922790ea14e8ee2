// Minimal binary (de)serialization primitives for the R-tree image, which
// the synopsis structure stores inside a CRC-checked ATAC chunk
// (common/artifact.h carries every other artifact). Fixed-width
// little-endian integers and IEEE doubles; every reader call throws on
// truncated input so corrupt files fail loudly instead of producing
// silently wrong synopses.
#pragma once

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace at::common {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    u64(v.size());
    for (const auto& x : v) u32(static_cast<std::uint32_t>(x));
  }
  void vec_f64(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }

  /// Length-prefixed opaque byte blob (codec payloads).
  void blob(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size());
  }

  /// Artifact header: 4-byte magic + format version.
  void magic(const char tag[4], std::uint32_t version) {
    raw(tag, 4);
    u32(version);
  }

 private:
  void raw(const void* p, std::size_t n) {
    os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    if (!os_) throw std::runtime_error("BinaryWriter: write failed");
  }
  std::ostream& os_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::vector<double> vec_f64() {
    const auto n = u64();
    std::vector<double> v(n);
    for (auto& x : v) x = f64();
    return v;
  }

  /// Verifies the artifact header; throws on mismatch.
  std::uint32_t magic(const char tag[4]) {
    char got[4];
    raw(got, 4);
    if (std::memcmp(got, tag, 4) != 0)
      throw std::runtime_error(std::string("BinaryReader: bad magic, want ") +
                               std::string(tag, 4));
    return u32();
  }

 private:
  void raw(void* p, std::size_t n) {
    is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(is_.gcount()) != n)
      throw std::runtime_error("BinaryReader: truncated input");
  }
  std::istream& is_;
};

}  // namespace at::common
