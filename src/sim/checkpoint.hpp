/// \file checkpoint.hpp
/// \brief Durable simulation checkpoints: snapshot a CircuitSimulator's
///        progress at a block boundary and resume it later — in another
///        simulator, another package, even another process.
///
/// The paper's MxM combination strategies deliberately make individual jobs
/// long-running (one accumulation chain instead of many cheap MxVs), which
/// makes losing a job to a timeout, budget kill or crash expensive. A
/// Checkpoint captures everything the engine needs to continue: the state
/// DD and the pending MxM accumulator in the portable edge-list migration
/// format (dd/migration.hpp), the index of the next top-level circuit
/// operation, the exact RNG stream position, the classical bits measured so
/// far, and the carried statistics. The (circuit, strategy, seed) identity
/// triple is stored alongside so a checkpoint can never be resumed against
/// the wrong job.
///
/// Determinism contract: resuming a checkpoint and running to completion
/// produces measurement outcomes bit-identical to the uninterrupted run —
/// across schedules (enforced in tests/test_checkpoint.cpp). This holds because the checkpoint is only
/// taken at quiescent block boundaries, the RNG position is exact, and DD
/// import rebuilds canonically in the destination package.
///
/// The serialized form is one wire envelope (wire/wire.hpp): versioned,
/// with one checksum over the header and the whole payload, the state and
/// accumulator included (they are embedded through dd::flatFields, not as
/// nested blobs). deserialize() rejects truncated or bit-flipped blobs with
/// a CheckpointError instead of resuming from garbage.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dd/migration.hpp"
#include "sim/stats.hpp"

namespace ddsim::sim {

/// Structured failure of checkpoint encode/decode/resume: corrupted blob,
/// unsupported version, or an identity mismatch against the job being
/// resumed.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A resumable snapshot of simulation progress. Plain data — no package
/// pointers — so it outlives the simulator that produced it.
struct Checkpoint {
  /// Identity triple of the run this snapshot belongs to. resumeFrom()
  /// refuses a checkpoint whose triple does not match the target job.
  std::uint64_t circuitHash = 0;
  std::uint64_t strategyHash = 0;
  std::uint64_t seed = 0;

  /// Index of the first top-level circuit operation not yet executed.
  std::uint64_t nextOpIndex = 0;
  /// Exact std::mt19937_64 stream position (the engine's serialized state,
  /// via operator<<), so resumed measurement draws continue the original
  /// sequence rather than restarting it.
  std::string rngState;
  std::vector<bool> classicalBits;

  /// The state DD at the boundary, in portable edge-list form.
  dd::FlatVectorDD state;
  /// The pending MxM accumulator (combining schedules may checkpoint with
  /// gates accumulated but not yet applied). Meaningful iff accPending.
  bool accPending = false;
  dd::FlatMatrixDD acc;
  std::uint64_t accCount = 0;
  std::uint64_t accGates = 0;

  /// Degradation-ladder context carried across the boundary, so a resumed
  /// run makes the same combine/flush decisions the uninterrupted one
  /// would have.
  std::uint64_t sequentialCooldown = 0;

  /// Statistics accumulated so far; a resumed run continues these totals,
  /// so the final stats of interrupted+resumed ≈ uninterrupted (wall time
  /// and package-local dd/cache snapshots excepted).
  SimulationStats stats;

  /// Versioned, checksummed binary blob (stable across processes).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  /// Decode a blob; throws CheckpointError on truncation, bad magic,
  /// unsupported version or checksum mismatch.
  [[nodiscard]] static Checkpoint deserialize(const std::uint8_t* data,
                                              std::size_t size);
  [[nodiscard]] static Checkpoint deserialize(
      const std::vector<std::uint8_t>& bytes);
};

/// The flat SimulationStats field list, shared by the checkpoint blob, the
/// serve layer's spill records and the net Result payload. \p io is a
/// wire::WireWriter (with a const \p s) or a wire::WireReader
/// (wire/wire.hpp). The package-snapshot sub-structs (dd, cache) are not
/// encoded — they are refreshed from the live package at the end of every
/// run and would be stale on disk.
template <class IO, class Stats>
void statsFields(IO& io, Stats& s) {
  io.f64(s.wallSeconds);
  io.u64(s.appliedGates);
  io.u64(s.mxvCount);
  io.u64(s.mxmCount);
  io.u64(s.peakStateNodes);
  io.u64(s.peakMatrixNodes);
  io.u64(s.finalStateNodes);
  io.f64(s.approxFidelity);
  io.u64(s.approxRounds);
  io.u64(s.degradationEvents);
  io.u64(s.pressureFlushes);
  io.u64(s.sequentialFallbackOps);
  io.u64(s.pressureApproximations);
  io.u64(s.resourceRecoveries);
  io.u64(s.migratedNodes);
  io.u64(s.checkpointsTaken);
  io.u64(s.resumedFromCheckpoint);
}

}  // namespace ddsim::sim
