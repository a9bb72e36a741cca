#include "wire/wire.hpp"

namespace ddsim::wire {

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

/// Bytes of the header the checksum covers: everything in front of it.
constexpr std::size_t kPrefixSize = 16;

std::uint64_t checksum(std::span<const std::uint8_t> prefix,
                       std::span<const std::uint8_t> payload) noexcept {
  return fnv1a(payload.data(), payload.size(),
               fnv1a(prefix.data(), kPrefixSize));
}

}  // namespace

std::vector<std::uint8_t> seal(std::uint32_t magic, std::uint16_t version,
                               std::uint8_t kind,
                               std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  putU32(out, magic);
  putU16(out, version);
  putU8(out, kind);
  putU8(out, 0);  // reserved
  putU64(out, payload.size());
  putU64(out, checksum(out, payload));
  putRaw(out, payload);
  return out;
}

Header readHeader(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                  std::uint16_t version) {
  if (bytes.size() < kHeaderSize) {
    throw WireError("buffer of " + std::to_string(bytes.size()) +
                    " bytes is shorter than the header (" +
                    std::to_string(kHeaderSize) + " bytes)");
  }
  WireReader r(bytes.first(kHeaderSize));
  if (r.u32() != magic) {
    throw WireError("bad magic");
  }
  if (const std::uint16_t v = r.u16(); v != version) {
    throw WireError("unsupported version " + std::to_string(v) +
                    " (expected " + std::to_string(version) + ")");
  }
  Header h;
  h.kind = r.u8();
  if (r.u8() != 0) {
    throw WireError("nonzero reserved byte");
  }
  h.length = r.u64();
  h.checksum = r.u64();
  return h;
}

Opened open(std::span<const std::uint8_t> bytes, std::uint32_t magic,
            std::uint16_t version) {
  const Header h = readHeader(bytes, magic, version);
  // Compared against size - kHeaderSize, not summed: a forged length near
  // 2^64 must not wrap around to the buffer size.
  if (h.length != bytes.size() - kHeaderSize) {
    throw WireError("buffer of " + std::to_string(bytes.size()) +
                    " bytes, header declares " + std::to_string(h.length) +
                    " payload bytes (truncated or padded)");
  }
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderSize);
  if (checksum(bytes, payload) != h.checksum) {
    throw WireError("checksum mismatch");
  }
  return {h.kind, payload};
}

void putBits(std::vector<std::uint8_t>& out, const std::vector<bool>& bits) {
  putU64(out, bits.size());
  std::uint8_t byte = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    byte = static_cast<std::uint8_t>(byte | ((bits[i] ? 1U : 0U) << (i % 8)));
    if (i % 8 == 7) {
      out.push_back(byte);
      byte = 0;
    }
  }
  if (bits.size() % 8 != 0) {
    out.push_back(byte);
  }
}

std::vector<bool> WireReader::bits() {
  const std::uint64_t n = u64();
  // Overflow-immune: reject before computing (n + 7) / 8 on a forged n.
  if (n / 8 > remaining()) {
    throw WireError("wire decode: bit vector length exceeds payload");
  }
  const std::uint8_t* p = need((n + 7) / 8);
  std::vector<bool> out(n, false);
  for (std::uint64_t i = 0; i < n; ++i) {
    out[i] = (p[i / 8] >> (i % 8)) & 1U;
  }
  return out;
}

void WireReader::expectEnd() const {
  if (!atEnd()) {
    throw WireError("wire decode: " + std::to_string(size_ - offset_) +
                    " unread bytes after the last field");
  }
}

void WireReader::truncated(std::size_t n) const {
  throw WireError("wire decode: truncated buffer (need " + std::to_string(n) +
                  " bytes, have " + std::to_string(size_ - offset_) + ")");
}

}  // namespace ddsim::wire
