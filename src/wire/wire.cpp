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
