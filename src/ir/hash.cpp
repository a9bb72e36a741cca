#include "ir/hash.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "ir/gate.hpp"
#include "ir/operation.hpp"

namespace ddsim::ir {

namespace {

/// Per-kind tags so that e.g. a Measure and a Reset on the same qubit can
/// never alias. Values are part of the stable hash — never reorder.
enum : std::uint64_t {
  kTagStandard = 0x5354,  // "ST"
  kTagMeasure = 0x4d45,   // "ME"
  kTagReset = 0x5245,     // "RE"
  kTagBarrier = 0x4241,   // "BA"
  kTagClassic = 0x434c,   // "CL"
  kTagOracle = 0x4f52,    // "OR"
};

std::uint64_t hashSortedControls(std::uint64_t h, const Controls& controls) {
  h = hashCombine(h, controls.size());
  for (const auto& c : controls) {
    h = hashCombine(h, static_cast<std::uint64_t>(c.qubit) << 1 |
                           (c.positive ? 1U : 0U));
  }
  return h;
}

std::uint64_t hashControls(std::uint64_t h, const Controls& controls) {
  // StandardOperation sorts on construction, so only hand-built control
  // lists pay for a sorted copy.
  if (std::is_sorted(controls.begin(), controls.end())) {
    return hashSortedControls(h, controls);
  }
  Controls sorted = controls;
  std::sort(sorted.begin(), sorted.end());
  return hashSortedControls(h, sorted);
}

std::uint64_t hashStandard(std::uint64_t h, const StandardOperation& op) {
  h = hashCombine(h, kTagStandard);
  h = hashCombine(h, static_cast<std::uint64_t>(op.type()));
  h = hashCombine(h, op.targets().size());
  for (const auto t : op.targets()) {
    h = hashCombine(h, static_cast<std::uint64_t>(t));
  }
  h = hashControls(h, op.controls());
  h = hashCombine(h, op.params().size());
  for (const double p : op.params()) {
    h = hashDouble(h, p);
  }
  return h;
}

std::uint64_t hashOracle(std::uint64_t h, const OracleOperation& op) {
  h = hashCombine(h, kTagOracle);
  h = hashCombine(h, op.numTargets());
  h = hashControls(h, op.controls());
  for (const char ch : op.name()) {
    h = hashCombine(h, static_cast<std::uint64_t>(static_cast<unsigned char>(ch)));
  }
  // The functionality is an opaque callable; its behaviour is what must be
  // keyed. Exhaustive up to 2^10 points, deterministic stratified sampling
  // above (name + samples then disambiguate; documented caveat: two
  // same-named oracles differing only outside the probed points collide).
  const std::uint64_t domain = 1ULL << op.numTargets();
  if (op.numTargets() <= 10) {
    for (std::uint64_t x = 0; x < domain; ++x) {
      h = hashCombine(h, op.apply(x));
    }
  } else {
    const std::uint64_t samples = 256;
    const std::uint64_t stride = domain / samples;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t x = i * stride + (i & 0xF);
      h = hashCombine(h, op.apply(x % domain));
    }
  }
  return h;
}

}  // namespace

bool sameGate(const StandardOperation& a,
              const StandardOperation& b) noexcept {
  const auto& pa = a.params();
  const auto& pb = b.params();
  return a.type() == b.type() && a.targets() == b.targets() &&
         a.controls() == b.controls() &&
         std::equal(pa.begin(), pa.end(), pb.begin(), pb.end(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

std::uint64_t hashDouble(std::uint64_t h, double v) noexcept {
  if (v == 0.0) {
    v = 0.0;  // collapse -0.0
  }
  return hashCombine(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t contentHash(std::uint64_t h, const Operation& op) {
  switch (op.kind()) {
    case OpKind::Standard:
      return hashStandard(h, static_cast<const StandardOperation&>(op));
    case OpKind::Measure: {
      const auto& m = static_cast<const MeasureOperation&>(op);
      h = hashCombine(h, kTagMeasure);
      h = hashCombine(h, static_cast<std::uint64_t>(m.qubit()));
      return hashCombine(h, m.clbit());
    }
    case OpKind::Reset: {
      const auto& r = static_cast<const ResetOperation&>(op);
      h = hashCombine(h, kTagReset);
      return hashCombine(h, static_cast<std::uint64_t>(r.qubit()));
    }
    case OpKind::Barrier:
      // Barriers flush strategy accumulators — scheduling-relevant, so two
      // sources differing only in barriers get distinct keys (their stats
      // differ even though the final state does not).
      return hashCombine(h, kTagBarrier);
    case OpKind::Compound: {
      // Canonicalization: hash the flattened repetition, so folding a flat
      // gate list into a CompoundOperation does not change the key.
      const auto& comp = static_cast<const CompoundOperation&>(op);
      for (std::size_t rep = 0; rep < comp.repetitions(); ++rep) {
        for (const auto& inner : comp.body()) {
          h = contentHash(h, *inner);
        }
      }
      return h;
    }
    case OpKind::ClassicControlled: {
      const auto& c = static_cast<const ClassicControlledOperation&>(op);
      h = hashCombine(h, kTagClassic);
      h = hashCombine(h, c.clbit());
      h = hashCombine(h, c.expectedValue() ? 1U : 0U);
      return hashStandard(h, c.op());
    }
    case OpKind::Oracle:
      return hashOracle(h, static_cast<const OracleOperation&>(op));
  }
  return h;
}

std::uint64_t contentHash(const Circuit& circuit) {
  std::uint64_t h = kHashSeed;
  h = hashCombine(h, circuit.numQubits());
  h = hashCombine(h, circuit.numClbits());
  for (const auto& op : circuit.ops()) {
    h = contentHash(h, *op);
  }
  return h;
}

}  // namespace ddsim::ir
