#include "sim/checkpoint.hpp"

#include "wire/wire.hpp"

namespace ddsim::sim {

namespace {

constexpr std::uint32_t kMagic = 0x44436b70U;  // "pkCD"
constexpr std::uint16_t kVersion = 3;

template <class IO, class C>
void checkpointFields(IO& io, C& ck) {
  io.u64(ck.circuitHash);
  io.u64(ck.strategyHash);
  io.u64(ck.seed);
  io.u64(ck.nextOpIndex);
  io.string(ck.rngState);
  io.bits(ck.classicalBits);
  dd::flatFields(io, ck.state);
  io.flag(ck.accPending);
  if (ck.accPending) {
    dd::flatFields(io, ck.acc);
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
  return wire::seal(kMagic, kVersion, 0, payload.out);
}

Checkpoint Checkpoint::deserialize(const std::uint8_t* data,
                                   std::size_t size) {
  try {
    const wire::Opened blob = wire::open({data, size}, kMagic, kVersion);
    if (blob.kind != 0) {
      throw wire::WireError("unknown kind " + std::to_string(blob.kind));
    }
    Checkpoint ck;
    wire::WireReader r(blob.payload);
    checkpointFields(r, ck);
    r.expectEnd();
    return ck;
  } catch (const wire::WireError& e) {
    throw CheckpointError(std::string("checkpoint: ") + e.what());
  }
}

Checkpoint Checkpoint::deserialize(const std::vector<std::uint8_t>& bytes) {
  return deserialize(bytes.data(), bytes.size());
}

}  // namespace ddsim::sim
