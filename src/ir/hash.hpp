/// \file hash.hpp
/// \brief Stable structural content hashing of circuits.
///
/// The serving layer answers duplicate submissions from a result cache, so
/// it needs a key that is (a) stable across process runs and re-parsed
/// copies of the same source, and (b) sensitive to anything that changes
/// the simulation outcome: gate structure, parameters, control polarities,
/// classical-bit wiring. `contentHash` provides that key by hashing a
/// *canonicalized* view of the operation stream:
///
///  * compound blocks are hashed as their flattened repetition, so a
///    circuit and its `flattened()` (or `detectRepetitions()`-folded)
///    form hash identically — the fold only changes scheduling, not the
///    computation;
///  * controls are hashed in sorted order (ir::StandardOperation already
///    canonicalizes them; the hash sorts a copy only of an unsorted list);
///  * the circuit name and other presentation-only attributes are ignored;
///  * floating-point parameters are hashed by bit pattern with -0.0
///    normalized to 0.0.
///
/// The hash is a 64-bit FNV-1a/SplitMix construction: deterministic,
/// platform-independent, and *not* cryptographic — the result cache stores
/// the full key triple and treats the hash as a bucket index, so a
/// collision costs a wasted lookup, never a wrong answer.

#pragma once

#include <cstdint>

#include "ir/circuit.hpp"

namespace ddsim::ir {

/// Seed/combine primitives, exposed so other layers (strategy-config
/// hashing in sim/, job keys in serve/) build on the same construction.
inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/// SplitMix64 finalizer: mix one 64-bit word into a running hash.
[[nodiscard]] constexpr std::uint64_t hashCombine(std::uint64_t h,
                                                  std::uint64_t x) noexcept {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// Hash a double by bit pattern, normalizing -0.0 to 0.0 so that
/// numerically identical parameters hash identically.
[[nodiscard]] std::uint64_t hashDouble(std::uint64_t h, double v) noexcept;

/// Structural content hash of a circuit (see file comment for what is and
/// is not part of the key). Oracle operations hash their permutation table
/// exhaustively up to 10 target qubits and by deterministic sampling above.
[[nodiscard]] std::uint64_t contentHash(const Circuit& circuit);

/// Content hash of a single operation (compound blocks flattened), using
/// \p h as the incoming state. Exposed for incremental/streaming use.
[[nodiscard]] std::uint64_t contentHash(std::uint64_t h, const Operation& op);

/// True when \p a and \p b are the same gate: type, targets, controls with
/// their polarity, and bit-identical parameters. Equal gates have equal
/// contentHash, so the pair keys a hash table by gate content (a hash match
/// alone is not proof: distinct gates may collide).
[[nodiscard]] bool sameGate(const StandardOperation& a,
                            const StandardOperation& b) noexcept;

}  // namespace ddsim::ir
