/// \file wire.hpp
/// \brief The one byte codec and the one checksummed envelope behind every
///        ddsim binary format: the checkpoint blob, the spill-journal
///        record and the net frame.
///
/// Numbers are explicit little-endian; doubles travel as their IEEE-754
/// bit pattern; classical bits are a u64 count followed by the bits packed
/// 8 per byte, LSB first. A blob produced on any supported host therefore
/// decodes bit-identically on any other. putString/putBytes write a u32
/// length prefix (the net payload convention); a format with another
/// prefix writes it itself and appends the bytes with putRaw.
///
/// WireWriter and WireReader share their method names, the writer taking
/// values and the reader filling references, so one field-list function
/// template serves both directions:
///
///     template <class IO, class P>  // P is const when IO is a WireWriter
///     void fields(IO& io, P& p) { io.u64(p.id); io.f64(p.seconds); }
///
/// The decode side is bounds-checked: reading past the end throws
/// WireError instead of touching out-of-range memory, so a truncated or
/// forged blob can only fail cleanly. A decoder ends its field list with
/// expectEnd(), so bytes left over after the last field (an encoder with a
/// longer layout) fail the same way. Each format maps WireError to its own
/// public error type.
///
/// Every format is one envelope, written by seal() and checked by open():
///
///     offset  size  field
///     0       4     magic (one per format)
///     4       2     version (one per format; bumped on a layout change)
///     6       1     kind (what the format says it is: arity, frame type)
///     7       1     reserved (must be 0)
///     8       8     payload length in bytes
///     16      8     fnv1a over bytes 0..15, then over the payload
///     24      ...   payload
///
/// The checksum chains the header prefix into the payload hash, so a flip
/// that turns one valid header field into another (a frame type, an
/// arity) fails verification like a flip in the payload. fnv1a() is also
/// the hash of the router's ring points. It detects truncation and bit
/// flips, not adversaries.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ddsim::wire {

/// Structured decode failure: truncated buffer or a length field pointing
/// past the end.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a over a byte range. Pass a previous result as \p seed to chain
/// the hash over discontiguous ranges.
[[nodiscard]] std::uint64_t fnv1a(
    const std::uint8_t* data, std::size_t size,
    std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// Size of the envelope header in front of every payload.
inline constexpr std::size_t kHeaderSize = 24;

/// An envelope header that passed readHeader().
struct Header {
  std::uint8_t kind = 0;
  std::uint64_t length = 0;
  std::uint64_t checksum = 0;
};

/// A verified envelope: its kind and its payload, borrowed from the bytes
/// handed to open().
struct Opened {
  std::uint8_t kind = 0;
  std::span<const std::uint8_t> payload;
};

/// The envelope around \p payload: header, then the payload bytes.
[[nodiscard]] std::vector<std::uint8_t> seal(
    std::uint32_t magic, std::uint16_t version, std::uint8_t kind,
    std::span<const std::uint8_t> payload);

/// Check the header at the front of \p bytes (at least kHeaderSize bytes):
/// magic, version and the reserved byte. Throws WireError.
[[nodiscard]] Header readHeader(std::span<const std::uint8_t> bytes,
                                std::uint32_t magic, std::uint16_t version);

/// readHeader(), then check that the payload fills the rest of \p bytes
/// exactly and matches the checksum. Throws WireError.
[[nodiscard]] Opened open(std::span<const std::uint8_t> bytes,
                          std::uint32_t magic, std::uint16_t version);

/// Little-endian append / load of an unsigned integer; every put*/peek*
/// below is one of these.
template <class T>
void putLE(std::vector<std::uint8_t>& out, T v) {
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

template <class T>
[[nodiscard]] T peekLE(const std::uint8_t* p) noexcept {
  T v = 0;
  for (std::size_t b = sizeof(T); b-- > 0;) {
    v = static_cast<T>((v << 8) | p[b]);
  }
  return v;
}

inline void putU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
inline void putU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  putLE(out, v);
}
inline void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  putLE(out, v);
}
inline void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putLE(out, v);
}
inline void putI32(std::vector<std::uint8_t>& out, std::int32_t v) {
  putLE(out, static_cast<std::uint32_t>(v));
}
inline void putF64(std::vector<std::uint8_t>& out, double v) {
  putLE(out, std::bit_cast<std::uint64_t>(v));
}

/// Append \p bytes (a string or byte vector) with no length prefix.
template <class Bytes>
void putRaw(std::vector<std::uint8_t>& out, const Bytes& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}
inline void putString(std::vector<std::uint8_t>& out, const std::string& s) {
  putU32(out, static_cast<std::uint32_t>(s.size()));
  putRaw(out, s);
}
inline void putBytes(std::vector<std::uint8_t>& out,
                     const std::vector<std::uint8_t>& bytes) {
  putU32(out, static_cast<std::uint32_t>(bytes.size()));
  putRaw(out, bytes);
}
void putBits(std::vector<std::uint8_t>& out, const std::vector<bool>& bits);

inline std::uint16_t peekU16(const std::uint8_t* p) noexcept {
  return peekLE<std::uint16_t>(p);
}
inline std::uint32_t peekU32(const std::uint8_t* p) noexcept {
  return peekLE<std::uint32_t>(p);
}
inline std::uint64_t peekU64(const std::uint8_t* p) noexcept {
  return peekLE<std::uint64_t>(p);
}

/// Encoding side of a field list: the WireReader method names over put*.
struct WireWriter {
  static constexpr bool kWrites = true;
  std::vector<std::uint8_t> out;

  void u8(std::uint8_t v) { putU8(out, v); }
  void u16(std::uint16_t v) { putU16(out, v); }
  void u32(std::uint32_t v) { putU32(out, v); }
  void u64(std::uint64_t v) { putU64(out, v); }
  void i32(std::int32_t v) { putI32(out, v); }
  void f64(double v) { putF64(out, v); }
  /// A bool as one byte, 0 or 1.
  void flag(bool v) { putU8(out, v ? 1 : 0); }
  void string(const std::string& s) { putString(out, s); }
  void bytes(const std::vector<std::uint8_t>& b) { putBytes(out, b); }
  void bits(const std::vector<bool>& b) { putBits(out, b); }
};

/// Bounds-checked sequential decoder over a borrowed byte range.
class WireReader {
 public:
  static constexpr bool kWrites = false;

  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(std::span<const std::uint8_t> bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return size_ - offset_;
  }
  [[nodiscard]] bool atEnd() const noexcept { return offset_ == size_; }
  /// Throws WireError unless every byte has been read.
  void expectEnd() const;

  std::uint8_t u8() { return *need(1); }
  std::uint16_t u16() { return peekU16(need(2)); }
  std::uint32_t u32() { return peekU32(need(4)); }
  std::uint64_t u64() { return peekU64(need(8)); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// The next \p n bytes, borrowed from the underlying buffer.
  std::span<const std::uint8_t> raw(std::size_t n) { return {need(n), n}; }
  std::string string() {
    const std::span<const std::uint8_t> s = raw(u32());
    return {s.begin(), s.end()};
  }
  std::vector<std::uint8_t> bytes() {
    const std::span<const std::uint8_t> s = raw(u32());
    return {s.begin(), s.end()};
  }
  std::vector<bool> bits();

  // Field-list forms: the calls a WireWriter takes, filling \p v.
  void u8(std::uint8_t& v) { v = u8(); }
  void u16(std::uint16_t& v) { v = u16(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i32(std::int32_t& v) { v = i32(); }
  void f64(double& v) { v = f64(); }
  void flag(bool& v) { v = u8() != 0; }
  void string(std::string& v) { v = string(); }
  void bytes(std::vector<std::uint8_t>& v) { v = bytes(); }
  void bits(std::vector<bool>& v) { v = bits(); }

 private:
  const std::uint8_t* need(std::size_t n) {
    if (n > size_ - offset_) {
      truncated(n);
    }
    const std::uint8_t* p = data_ + offset_;
    offset_ += n;
    return p;
  }
  [[noreturn]] void truncated(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t offset_ = 0;
};

}  // namespace ddsim::wire
