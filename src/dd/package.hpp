/// \file package.hpp
/// \brief The decision-diagram package: construction and manipulation of
///        vector DDs (quantum states) and matrix DDs (quantum operations).
///
/// This is a clean-room implementation of the QMDD-style package the paper
/// builds on ([19], [22], [23]): edge-weighted DDs with canonical complex
/// weights, unique tables, and memoized recursive operations following the
/// multiplication/addition schemes of the paper's Figs. 3 and 4. On top of
/// the classic operations it provides direct construction of permutation
/// matrices from classical functions (`makePermutationDD`), the engine
/// behind the paper's *DD-construct* strategy.

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dd/complex_table.hpp"
#include "dd/complex_value.hpp"
#include "dd/compute_table.hpp"
#include "dd/fault_injection.hpp"
#include "dd/memory_manager.hpp"
#include "dd/node.hpp"
#include "dd/resource_governor.hpp"
#include "dd/unique_table.hpp"

namespace ddsim::dd {

/// Row-major 2x2 unitary: {u00, u01, u10, u11}.
using GateMatrix = std::array<ComplexValue, 4>;

/// A control qubit with polarity. `positive == true` means the operation is
/// applied when the control is |1> (the usual case); `false` conditions on
/// |0> (used e.g. by Grover oracles without X-conjugation).
/// Thrown from inside long-running recursive operations when the abort
/// check installed via Package::setAbortCheck returns true. Leaves the
/// package in a consistent state: rooted DDs are untouched, abandoned
/// intermediates are reclaimed by the next garbage collection.
class ComputationAborted : public std::runtime_error {
 public:
  ComputationAborted() : std::runtime_error("DD computation aborted") {}
};

struct Control {
  Qubit qubit = 0;
  bool positive = true;

  friend bool operator<(const Control& a, const Control& b) noexcept {
    return a.qubit < b.qubit;
  }
  bool operator==(const Control&) const noexcept = default;
};

using Controls = std::vector<Control>;

/// Operation counters exposed for the paper's cost analysis: the whole point
/// of the scheduling strategies is to trade top-level MxV applications
/// against MxM combinations, so both are counted separately, along with the
/// recursive work they trigger.
struct PackageStats {
  std::uint64_t matrixVectorMultiplications = 0;  ///< top-level M x v
  std::uint64_t matrixMatrixMultiplications = 0;  ///< top-level M x M
  /// Multiply recursions past the identity check (skips are not calls).
  std::uint64_t recursiveMulVCalls = 0;
  std::uint64_t recursiveMulMCalls = 0;
  std::uint64_t recursiveAddCalls = 0;
  /// Structure-aware fast paths: recursions short-circuited because an
  /// operand (sub)matrix is a scalar multiple of the identity (I·v = v,
  /// I·M = M, M·I = M), without descending the explicit identity chain.
  std::uint64_t identitySkipsMV = 0;
  std::uint64_t identitySkipsMM = 0;
  /// Diagonal·diagonal products where the off-diagonal quadrant recursions
  /// were pruned wholesale.
  std::uint64_t diagonalFastPathsMM = 0;
  std::uint64_t garbageCollections = 0;
  std::uint64_t nodesCollected = 0;
  std::uint64_t peakLiveNodes = 0;
  /// Emergency collections triggered by resource pressure (subset of
  /// garbageCollections); these also release fully-free allocator chunks.
  std::uint64_t emergencyCollections = 0;
  /// Bytes returned to the OS by chunk release during emergency collections.
  std::uint64_t bytesReleased = 0;

  /// Fraction of multiply sub-products resolved by the identity fast path
  /// (0 when no multiplies ran). Each sub-product either takes a fast path
  /// (top level, per quadrant or on entry to the recursion) or is counted
  /// as one recursive call past the identity check, so the rate stays in
  /// [0, 1].
  [[nodiscard]] double identitySkipRate() const noexcept {
    const std::uint64_t skips = identitySkipsMV + identitySkipsMM;
    const std::uint64_t total = skips + recursiveMulVCalls + recursiveMulMCalls;
    return total == 0 ? 0.0
                      : static_cast<double>(skips) / static_cast<double>(total);
  }
};

/// Hit/miss counters of the memoization layers. The compute-table hit rate
/// is what turns the recursions of Figs. 3/4 from exponential (in paths)
/// into linear (in nodes): "re-occurring sub-products only have to be
/// computed once".
struct CacheStats {
  std::uint64_t mulMVHits = 0;
  std::uint64_t mulMVMisses = 0;
  std::uint64_t mulMMHits = 0;
  std::uint64_t mulMMMisses = 0;
  std::uint64_t addHits = 0;
  std::uint64_t addMisses = 0;
  /// Conjugate-transpose, inner-product, norm and trace caches, summed.
  std::uint64_t otherHits = 0;
  std::uint64_t otherMisses = 0;
  std::uint64_t uniqueTableHits = 0;
  std::uint64_t uniqueTableMisses = 0;
  std::uint64_t complexTableHits = 0;
  std::uint64_t complexTableMisses = 0;

  [[nodiscard]] static double rate(std::uint64_t hits, std::uint64_t misses) noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Combined multiply-cache hit rate (MxV and MxM).
  [[nodiscard]] double mulHitRate() const noexcept {
    return rate(mulMVHits + mulMMHits, mulMVMisses + mulMMMisses);
  }
};

class Package {
 public:
  /// \param numQubits width of all states/operators handled by this package.
  /// \param tolerance complex-canonicalization tolerance (see ComplexTable).
  explicit Package(std::size_t numQubits, double tolerance = kTolerance);

  Package(const Package&) = delete;
  Package& operator=(const Package&) = delete;

  [[nodiscard]] std::size_t qubits() const noexcept { return numQubits_; }
  [[nodiscard]] ComplexTable& complexTable() noexcept { return ctab_; }
  [[nodiscard]] const PackageStats& stats() const noexcept { return stats_; }
  void resetStats() noexcept { stats_ = PackageStats{}; }
  /// Snapshot of the memoization-layer hit/miss counters.
  [[nodiscard]] CacheStats cacheStats() const noexcept;

  // ---------------------------------------------------------------- weights
  [[nodiscard]] CWeight czero() const noexcept { return ctab_.zero(); }
  [[nodiscard]] CWeight cone() const noexcept { return ctab_.one(); }
  CWeight clookup(ComplexValue v) { return ctab_.lookup(v); }

  // ---------------------------------------------------- terminals and zeros
  [[nodiscard]] VEdge vZero() noexcept { return {&vTerminal_, czero()}; }
  [[nodiscard]] VEdge vOneTerminal() noexcept { return {&vTerminal_, cone()}; }
  [[nodiscard]] MEdge mZero() noexcept { return {&mTerminal_, czero()}; }
  [[nodiscard]] MEdge mOneTerminal() noexcept { return {&mTerminal_, cone()}; }

  // ------------------------------------------------------ node construction
  /// Create (or reuse) a normalized vector node. Children must either be
  /// zero-terminal or rooted exactly one level below \p v.
  VEdge makeVNode(Qubit v, std::array<VEdge, 2> children);
  /// Create (or reuse) a normalized matrix node (children = quadrants
  /// {M00, M01, M10, M11}).
  MEdge makeMNode(Qubit v, std::array<MEdge, 4> children);

  // ----------------------------------------------------- state construction
  /// |0...0> over all qubits.
  VEdge makeZeroState();
  /// Computational basis state |bits> (bit i of \p bits = qubit i).
  VEdge makeBasisState(std::uint64_t bits);
  /// Dense amplitude vector (size 2^n) to DD; used by tests and examples.
  VEdge makeStateFromVector(std::span<const ComplexValue> amplitudes);

  // ---------------------------------------------------- matrix construction
  /// Identity over all qubits.
  MEdge makeIdent();
  /// Identity over qubits [0 .. topVar]; cached and pinned against GC.
  MEdge makeIdent(Qubit topVar);
  /// Single-qubit gate \p u on \p target with arbitrary positive/negative
  /// controls, padded with explicit identities to full width.
  MEdge makeGateDD(const GateMatrix& u, Qubit target, const Controls& controls = {});
  /// Matrix DD of the permutation f given as a table over the low
  /// t = log2(perm.size()) qubits (perm[x] = f(x)), extended to full width
  /// with identities and the given controls (all controls must lie above
  /// the permuted qubits). This is the *DD-construct* primitive: the oracle
  /// functionality is turned into a DD directly, without elementary gates.
  MEdge makePermutationDD(const std::vector<std::uint64_t>& perm,
                          const Controls& controls = {});
  /// Dense matrix (row-major, 2^k x 2^k over the low k qubits) to DD,
  /// extended to full width; used by tests.
  MEdge makeMatrixFromDense(std::span<const ComplexValue> rowMajor,
                            const Controls& controls = {});

  // ----------------------------------------------------------- operations
  VEdge add(const VEdge& a, const VEdge& b);
  MEdge add(const MEdge& a, const MEdge& b);
  /// Matrix-vector multiplication (one simulation step, paper Eq. 1).
  VEdge multiply(const MEdge& m, const VEdge& v);
  /// Matrix-matrix multiplication (operation combination, paper Eq. 2).
  MEdge multiply(const MEdge& a, const MEdge& b);
  MEdge conjugateTranspose(const MEdge& m);
  /// <a|b> with the conjugation applied to \p a.
  ComplexValue innerProduct(const VEdge& a, const VEdge& b);
  /// |<a|b>|^2
  double fidelity(const VEdge& a, const VEdge& b);
  /// <v|v>
  double norm2(const VEdge& v);
  /// Trace of a matrix DD (sum of the diagonal), computed recursively in
  /// O(DD size). Basis of the unitary-equivalence check: |Tr(A^dagger B)|
  /// equals 2^n iff A and B agree up to a global phase.
  ComplexValue trace(const MEdge& m);

  // ----------------------------------------------------------- inspection
  /// Amplitude of basis state \p index (bit i = qubit i).
  ComplexValue getAmplitude(const VEdge& v, std::uint64_t index);
  /// Full dense state vector (tests/examples; exponential in n).
  std::vector<ComplexValue> getVector(const VEdge& v);
  /// Full dense matrix, row-major (tests; exponential in n).
  std::vector<ComplexValue> getMatrix(const MEdge& m);
  /// Number of distinct nodes reachable from the edge, terminal included.
  std::size_t size(const VEdge& v) const;
  std::size_t size(const MEdge& m) const;

  // ----------------------------------------------------------- measurement
  /// Sample a complete measurement outcome (bit i = qubit i). The state must
  /// be normalized. Does not modify the state unless \p collapse is set.
  std::uint64_t measureAll(VEdge& v, std::mt19937_64& rng, bool collapse);
  /// Probability of reading |1> on qubit \p q.
  double probabilityOfOne(const VEdge& v, Qubit q);
  /// Measure one qubit, collapse and renormalize the state. Returns 0 or 1.
  int measureOneCollapsing(VEdge& v, Qubit q, std::mt19937_64& rng);
  /// Sample \p shots complete measurements without collapsing; returns a
  /// histogram of outcomes (bit i = qubit i).
  std::map<std::uint64_t, std::size_t> sampleCounts(const VEdge& v,
                                                    std::size_t shots,
                                                    std::mt19937_64& rng);

  // ------------------------------------------------- reference counting/GC
  // Rooting an edge pins both its node graph and its top weight (weights of
  // internal edges are kept alive by their owning nodes).
  void incRef(const VEdge& e) noexcept {
    incRefNode(e.p);
    ctab_.incRef(e.w);
  }
  void decRef(const VEdge& e) noexcept {
    decRefNode(e.p);
    ctab_.decRef(e.w);
  }
  void incRef(const MEdge& e) noexcept {
    incRefNode(e.p);
    ctab_.incRef(e.w);
  }
  void decRef(const MEdge& e) noexcept {
    decRefNode(e.p);
    ctab_.decRef(e.w);
  }

  /// Collect all unreferenced nodes and invalidate every compute-table
  /// entry that names one of them. Must only be called at a quiescent point
  /// (no unrooted intermediate results held by the caller). Returns the
  /// number of nodes collected.
  std::size_t garbageCollect();
  /// Collect if the number of live nodes exceeds the adaptive threshold, a
  /// configured resource budget is under pressure, or an installed fault
  /// injector forces a collection.
  bool maybeGarbageCollect();
  /// Pressure response: garbage-collect and return fully-free allocator
  /// chunks to the OS. Quiescent-point contract as garbageCollect().
  /// Returns the number of bytes released.
  std::size_t emergencyCollect();

  /// Live node counts (diagnostics / max-size strategy instrumentation).
  [[nodiscard]] std::size_t vNodeCount() const noexcept { return vUnique_.liveCount(); }
  [[nodiscard]] std::size_t mNodeCount() const noexcept { return mUnique_.liveCount(); }
  /// Total live DD nodes (the quantity a node budget governs).
  [[nodiscard]] std::size_t liveNodes() const noexcept {
    return vUnique_.liveCount() + mUnique_.liveCount();
  }
  /// Bytes held by the node allocators, the unique-table buckets and the
  /// complex table (weight entries plus its bucket array).
  [[nodiscard]] std::size_t bytesAllocated() const noexcept {
    return vMem_.bytesAllocated() + mMem_.bytesAllocated() +
           vUnique_.bucketBytes() + mUnique_.bucketBytes() + ctab_.bytes();
  }

  /// Install a cancellation predicate polled periodically from inside the
  /// recursive operations (every few thousand recursion steps). When it
  /// returns true, the current operation throws ComputationAborted — this is
  /// how time budgets interrupt a single runaway multiplication. Pass an
  /// empty function to disable.
  void setAbortCheck(std::function<bool()> check) {
    abortCheck_ = std::move(check);
  }

  // --------------------------------------------------- resource governance
  /// Budget and pressure-ladder policy; configure via
  /// governor().setBudget(...) / setPressureCallback(...). The budget is
  /// checked on every node creation: the soft rung fires the callback and
  /// schedules an emergency collection at the next quiescent point, the
  /// hard rung throws ResourceExhausted from the operation in flight.
  [[nodiscard]] ResourceGovernor& governor() noexcept { return governor_; }
  /// Current pressure level against the configured budget (None when no
  /// budget is set).
  [[nodiscard]] ResourcePressure resourcePressure() const noexcept {
    return governor_.active()
               ? governor_.classify(liveNodes(), bytesAllocated())
               : ResourcePressure::None;
  }

  /// Install (or remove, with nullptr) a deterministic fault injector. The
  /// injector is polled on every node request, abort poll and GC poll; not
  /// owned. Zero-cost when unset beyond a null check.
  void setFaultInjector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }

 private:
  template <std::size_t Arity>
  void incRefNode(Node<Arity>* n) noexcept;
  template <std::size_t Arity>
  void decRefNode(Node<Arity>* n) noexcept;

  /// An edge whose weight is a plain value rather than a canonical
  /// pointer: the working currency of the recursive kernels and the result
  /// type of their compute tables. Weights are multiplied and summed as
  /// values on the way down and up; the complex table sees the ratios a
  /// node stores (makeNode), at most one weight per recursive add (addRec),
  /// and the root weight of a public operation (canonical). A weight within
  /// tolerance of zero means "zero" whatever its node (see negligible()).
  template <std::size_t Arity>
  struct CachedEdge {
    Node<Arity>* p = nullptr;
    ComplexValue w{};

    constexpr bool operator==(const CachedEdge&) const noexcept = default;
  };
  using CachedVEdge = CachedEdge<2>;
  using CachedMEdge = CachedEdge<4>;

  template <std::size_t Arity>
  [[nodiscard]] Node<Arity>* terminal() noexcept {
    if constexpr (Arity == 2) {
      return &vTerminal_;
    } else {
      return &mTerminal_;
    }
  }
  template <std::size_t Arity>
  [[nodiscard]] CachedEdge<Arity> zeroValue() noexcept {
    return {terminal<Arity>(), {}};
  }
  template <std::size_t Arity>
  [[nodiscard]] static CachedEdge<Arity> valueOf(const Edge<Arity>& e) noexcept {
    return {e.p, *e.w};
  }
  /// What the complex table would snap to zero.
  [[nodiscard]] bool negligible(const ComplexValue& w) const noexcept {
    return w.approximatelyZero(ctab_.tolerance());
  }
  /// The one lookup of a public operation: canonicalize the root weight.
  template <std::size_t Arity>
  Edge<Arity> canonical(const CachedEdge<Arity>& r) {
    const CWeight w = clookup(r.w);
    return w->exactlyZero() ? Edge<Arity>{terminal<Arity>(), czero()}
                            : Edge<Arity>{r.p, w};
  }

  /// Normalize \p children by the weight of largest magnitude, canonicalize
  /// the ratios the node stores and find or insert the node. Negligible
  /// children become zero stubs. Returns the index of the top child (whose
  /// weight the caller puts on the incoming edge), or Arity if every child
  /// is negligible; \p node is set only in the first case.
  template <std::size_t Arity>
  std::size_t normalizedNode(Qubit v,
                             const std::array<CachedEdge<Arity>, Arity>& children,
                             Node<Arity>*& node);
  template <std::size_t Arity>
  CachedEdge<Arity> makeNode(Qubit v,
                             const std::array<CachedEdge<Arity>, Arity>& children);

  template <std::size_t Arity>
  CachedEdge<Arity> addRec(const CachedEdge<Arity>& a,
                           const CachedEdge<Arity>& b);
  CachedVEdge mulNodesMV(MNode* a, VNode* b);
  CachedMEdge mulNodesMM(MNode* a, MNode* b);
  /// Conjugate transpose of the node, entered with weight one.
  CachedMEdge transposeRec(MNode* p);
  ComplexValue innerProductRec(VNode* a, VNode* b);
  ComplexValue traceNode(MNode* p);
  double normNode(VNode* p);
  MEdge buildPermutation(Qubit level, std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries);
  MEdge buildDense(Qubit level, std::span<const ComplexValue> rowMajor,
                   std::uint64_t rowOff, std::uint64_t colOff, std::uint64_t dim);
  VEdge buildDenseVector(Qubit level, std::span<const ComplexValue> amps,
                         std::uint64_t off, std::uint64_t dim);
  /// Lift a matrix DD spanning the low qubits to full width, inserting
  /// identity tensor factors and control tests at the levels above.
  MEdge extendToFullWidth(MEdge e, const Controls& controls);

  std::size_t numQubits_;
  ComplexTable ctab_;

  MemoryManager<VNode> vMem_;
  MemoryManager<MNode> mMem_;
  UniqueTable<VNode> vUnique_;
  UniqueTable<MNode> mUnique_;

  VNode vTerminal_;
  MNode mTerminal_;

  // Operation caches: 4-way set-associative, generation-tagged (a GC
  // keeps only the entries that pass survives(); see compute_table.hpp).
  // Results hold their weight by value, so a hit needs no lookup. The add
  // tables are keyed scale-free, (x.p, 1) + (y.p, y.w / x.w), and hold the
  // sum for x.w = 1. The canonical ratio is keyed by value. The inner
  // product, norm and trace caches store plain values.
  ComputeTable<VEdge, CachedVEdge, CachedVEdge> addVTable_;
  ComputeTable<MEdge, CachedMEdge, CachedMEdge> addMTable_;
  ComputeTable<MEdge, VEdge, CachedVEdge> mulMVTable_;
  ComputeTable<MEdge, MEdge, CachedMEdge> mulMMTable_;
  UnaryComputeTable<MEdge, CachedMEdge> transposeTable_;
  ComputeTable<VEdge, VEdge, ComplexValue> innerTable_;
  UnaryComputeTable<VEdge, double> normTable_;
  UnaryComputeTable<MEdge, ComplexValue> traceTable_;

  template <std::size_t Arity>
  auto& addTable() noexcept {
    if constexpr (Arity == 2) {
      return addVTable_;
    } else {
      return addMTable_;
    }
  }

  // Whether a compute-table entry may outlive a collection, part by part:
  // each node it names is live (a collected node reads id 0; terminals keep
  // id 0 but are never collected). Every kernel keys its edges at weight
  // one, (node, 1), so no key names a weight the collection may recycle.
  template <std::size_t Arity>
  static bool live(const Node<Arity>* p) noexcept {
    return p->id != 0 || p->isTerminal();
  }
  template <std::size_t Arity>
  bool survives(const Edge<Arity>& e) const noexcept {
    assert(e.w == cone());
    return live(e.p);
  }
  template <std::size_t Arity>
  static bool survives(const CachedEdge<Arity>& e) noexcept {
    return live(e.p);
  }
  static bool survives(const ComplexValue&) noexcept { return true; }
  static bool survives(double) noexcept { return true; }

  std::vector<MEdge> identities_;  ///< makeIdent(v) cache, pinned

  void pollAbort() {
    if (injector_ != nullptr && injector_->onAbortPoll(opIndex_)) {
      throw ComputationAborted{};
    }
    if ((++abortPolls_ & 0x3FFFU) == 0 && abortCheck_ && abortCheck_()) {
      throw ComputationAborted{};
    }
  }

  /// RAII label for the top-level operation in flight: names the operation
  /// in ResourceExhausted diagnostics and counts top-level operations for
  /// the fault injector. Nested package calls keep the outermost label.
  class OpGuard {
   public:
    OpGuard(Package& pkg, const char* name) noexcept
        : pkg_(pkg), prev_(pkg.currentOp_) {
      if (prev_ == nullptr) {
        pkg_.currentOp_ = name;
        ++pkg_.opIndex_;
      }
    }
    ~OpGuard() { pkg_.currentOp_ = prev_; }
    OpGuard(const OpGuard&) = delete;
    OpGuard& operator=(const OpGuard&) = delete;

   private:
    Package& pkg_;
    const char* prev_;
  };

  /// Budget/fault check on every node creation: soft rung fires the
  /// pressure callback (collection is deferred to the next quiescent
  /// point), hard rung throws ResourceExhausted out of the operation in
  /// flight. Near-free when neither a budget nor an injector is set.
  void checkResources() {
    if (injector_ != nullptr && injector_->onNodeRequest()) {
      throw ResourceExhausted(operationInFlight(), liveNodes(),
                              governor_.budget().maxLiveNodes,
                              bytesAllocated(),
                              "fault injection: allocation failure");
    }
    if (!governor_.active()) {
      return;
    }
    const std::size_t live = liveNodes();
    const std::size_t bytes = bytesAllocated();
    const ResourcePressure level = governor_.classify(live, bytes);
    governor_.observe(level, live);
    if (level == ResourcePressure::Hard) {
      throw ResourceExhausted(operationInFlight(), live,
                              governor_.budget().maxLiveNodes, bytes);
    }
  }

  [[nodiscard]] const char* operationInFlight() const noexcept {
    return currentOp_ != nullptr ? currentOp_ : "idle";
  }

  /// Fresh sweep number for the stamp-based size() traversal. Node stamps
  /// from 2^32 sweeps ago could theoretically alias; a size() call every
  /// microsecond takes over an hour to get there, and the only consequence
  /// would be one undercounted statistic.
  std::uint32_t nextVisitMark() const noexcept { return ++visitMark_; }

  std::size_t gcThreshold_ = 1U << 18;
  mutable std::uint32_t visitMark_ = 0;
  PackageStats stats_;
  std::function<bool()> abortCheck_;
  std::uint64_t abortPolls_ = 0;  ///< pollAbort calls; every 2^14th checks

  ResourceGovernor governor_;
  FaultInjector* injector_ = nullptr;  ///< not owned; nullptr = disabled
  const char* currentOp_ = nullptr;    ///< top-level operation label
  std::uint64_t opIndex_ = 0;          ///< top-level operations started
  /// Emergency-GC hysteresis: skip further emergency collections until the
  /// live-node count has grown past this mark again (a collection that
  /// freed nothing would otherwise repeat on every quiescent point while
  /// pressure persists).
  std::size_t emergencyRearmLive_ = 0;
};

}  // namespace ddsim::dd
