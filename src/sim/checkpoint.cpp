#include "sim/checkpoint.hpp"

#include <type_traits>

#include "wire/wire.hpp"

namespace ddsim::sim {

namespace {

constexpr std::uint32_t kMagic = 0x44436b70U;  // "pkCD"
constexpr std::uint32_t kVersion = 2;
/// magic, version, payload length, payload checksum.
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;

/// Strings and nested blobs are u64-length-prefixed in this format.
template <class IO, class Bytes>
void sized(IO& io, Bytes& bytes) {
  if constexpr (IO::kWrites) {
    io.u64(bytes.size());
    wire::putRaw(io.out, bytes);
  } else {
    const auto s = io.raw(io.u64());
    bytes.assign(s.begin(), s.end());
  }
}

/// Flags are u32 in this format.
template <class IO, class Flag>
void flag32(IO& io, Flag& flag) {
  if constexpr (IO::kWrites) {
    io.u32(flag ? 1U : 0U);
  } else {
    flag = io.u32() != 0;
  }
}

/// A FlatDD travels as a nested migration blob (dd/migration.hpp).
template <class IO, class Flat>
void ddBlob(IO& io, Flat& flat) {
  if constexpr (IO::kWrites) {
    const std::vector<std::uint8_t> blob = dd::serializeDD(flat);
    sized(io, blob);
  } else {
    const auto s = io.raw(io.u64());
    if constexpr (std::is_same_v<Flat, dd::FlatVectorDD>) {
      flat = dd::deserializeVectorDD(s.data(), s.size());
    } else {
      flat = dd::deserializeMatrixDD(s.data(), s.size());
    }
  }
}

template <class IO, class C>
void checkpointFields(IO& io, C& ck) {
  io.u64(ck.circuitHash);
  io.u64(ck.strategyHash);
  io.u64(ck.seed);
  io.u64(ck.nextOpIndex);
  sized(io, ck.rngState);
  io.bits(ck.classicalBits);
  ddBlob(io, ck.state);
  flag32(io, ck.accPending);
  if (ck.accPending) {
    ddBlob(io, ck.acc);
  }
  io.u64(ck.accCount);
  io.u64(ck.accGates);
  io.u64(ck.sequentialCooldown);
  statsFields(io, ck.stats);
}

}  // namespace

std::vector<std::uint8_t> Checkpoint::serialize() const {
  wire::WireWriter payload;
  checkpointFields(payload, *this);

  wire::WireWriter w;
  w.out.reserve(kHeaderSize + payload.out.size());
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(payload.out.size());
  w.u64(wire::fnv1a(payload.out.data(), payload.out.size()));
  wire::putRaw(w.out, payload.out);
  return std::move(w.out);
}

Checkpoint Checkpoint::deserialize(const std::uint8_t* data,
                                   std::size_t size) {
  if (data == nullptr || size < kHeaderSize) {
    throw CheckpointError("checkpoint blob shorter than its header");
  }
  if (wire::peekU32(data) != kMagic) {
    throw CheckpointError("bad magic (not a checkpoint blob)");
  }
  if (const std::uint32_t version = wire::peekU32(data + 4);
      version != kVersion) {
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  }
  const std::uint64_t payloadLen = wire::peekU64(data + 8);
  const std::uint64_t checksum = wire::peekU64(data + 16);
  // Compared against size - kHeaderSize, not summed: a forged length near
  // 2^64 must not wrap around to the buffer size.
  if (payloadLen != size - kHeaderSize) {
    throw CheckpointError("checkpoint blob truncated (" +
                          std::to_string(size) + " bytes, header declares " +
                          std::to_string(payloadLen) + " payload bytes)");
  }
  const std::uint8_t* payload = data + kHeaderSize;
  if (wire::fnv1a(payload, payloadLen) != checksum) {
    throw CheckpointError("checkpoint payload checksum mismatch");
  }

  Checkpoint ck;
  try {
    wire::WireReader r(payload, payloadLen);
    checkpointFields(r, ck);
    r.expectEnd();
  } catch (const wire::WireError& e) {
    throw CheckpointError(std::string("checkpoint payload: ") + e.what());
  } catch (const dd::MigrationError& e) {
    // The outer checksum passed but a nested DD blob is malformed —
    // surface it as a checkpoint problem, the caller's failure domain.
    throw CheckpointError(std::string("embedded DD rejected: ") + e.what());
  }
  return ck;
}

Checkpoint Checkpoint::deserialize(const std::vector<std::uint8_t>& bytes) {
  return deserialize(bytes.data(), bytes.size());
}

}  // namespace ddsim::sim
