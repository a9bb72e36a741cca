#include "dd/package.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ddsim::dd {

namespace {
constexpr std::uint32_t kRefSaturated = std::numeric_limits<std::uint32_t>::max();

bool isPowerOfTwo(std::uint64_t x) noexcept { return x != 0 && (x & (x - 1)) == 0; }

std::uint32_t log2OfPow2(std::uint64_t x) noexcept {
  std::uint32_t l = 0;
  while ((x >>= 1U) != 0) {
    ++l;
  }
  return l;
}
}  // namespace

Package::Package(std::size_t numQubits, double tolerance)
    : numQubits_(numQubits),
      ctab_(tolerance),
      vUnique_(vMem_),
      mUnique_(mMem_) {
  if (numQubits == 0 || numQubits > 62) {
    throw std::invalid_argument("Package: qubit count must be in [1, 62]");
  }
  vUnique_.resize(numQubits);
  mUnique_.resize(numQubits);
  vTerminal_.v = kTerminalVar;
  vTerminal_.ref = kRefSaturated;
  mTerminal_.v = kTerminalVar;
  mTerminal_.ref = kRefSaturated;
  // The 1x1 matrix terminal is the identity (and trivially diagonal); the
  // structure flags of every matrix node derive from this base case.
  mTerminal_.flags = kNodeIsDiagonal | kNodeIsIdentity;
  identities_.reserve(numQubits);
}

CacheStats Package::cacheStats() const noexcept {
  CacheStats cs;
  cs.mulMVHits = mulMVTable_.hits();
  cs.mulMVMisses = mulMVTable_.misses();
  cs.mulMMHits = mulMMTable_.hits();
  cs.mulMMMisses = mulMMTable_.misses();
  cs.addHits = addVTable_.hits() + addMTable_.hits();
  cs.addMisses = addVTable_.misses() + addMTable_.misses();
  cs.uniqueTableHits = vUnique_.hits() + mUnique_.hits();
  cs.uniqueTableMisses = vUnique_.misses() + mUnique_.misses();
  cs.complexTableHits = ctab_.hits();
  cs.complexTableMisses = ctab_.misses();
  cs.mulMVRetained = mulMVTable_.counters().retained;
  cs.mulMMRetained = mulMMTable_.counters().retained;
  cs.addRetained = addVTable_.counters().retained + addMTable_.counters().retained;
  const auto accumulate = [&cs](const ComputeTableCounters& c) {
    cs.cacheRetained += c.retained;
    cs.cacheStaleDropped += c.staleDropped;
  };
  accumulate(addVTable_.counters());
  accumulate(addMTable_.counters());
  accumulate(mulMVTable_.counters());
  accumulate(mulMMTable_.counters());
  accumulate(kronMTable_.counters());
  accumulate(kronVTable_.counters());
  accumulate(transposeTable_.counters());
  accumulate(innerTable_.counters());
  accumulate(normTable_.counters());
  accumulate(traceTable_.counters());
  return cs;
}

// --------------------------------------------------------------- ref counts

template <std::size_t Arity>
void Package::incRefNode(Node<Arity>* n) noexcept {
  if (n == nullptr || n->isTerminal() || n->ref == kRefSaturated) {
    return;
  }
  ++n->ref;
  if (n->ref == 1U) {
    for (const auto& edge : n->e) {
      incRefNode(edge.p);
    }
  }
}

template <std::size_t Arity>
void Package::decRefNode(Node<Arity>* n) noexcept {
  if (n == nullptr || n->isTerminal() || n->ref == kRefSaturated) {
    return;
  }
  assert(n->ref > 0 && "decRef on unreferenced node");
  --n->ref;
  if (n->ref == 0U) {
    for (const auto& edge : n->e) {
      decRefNode(edge.p);
    }
  }
}

template void Package::incRefNode<2>(Node<2>*) noexcept;
template void Package::incRefNode<4>(Node<4>*) noexcept;
template void Package::decRefNode<2>(Node<2>*) noexcept;
template void Package::decRefNode<4>(Node<4>*) noexcept;

std::size_t Package::garbageCollect() {
  const obs::ScopedSpan span("dd.gc", obs::cat::kDd);
  const std::size_t collected =
      vUnique_.garbageCollect() + mUnique_.garbageCollect();
  // Sweep the complex table: weights referenced by the surviving nodes (or
  // pinned as root weights / constants) stay, everything else is recycled.
  std::unordered_set<CWeight> liveWeights;
  liveWeights.reserve((vUnique_.liveCount() + mUnique_.liveCount()) * 2);
  vUnique_.forEach([&liveWeights](const VNode* n) {
    for (const auto& e : n->e) {
      liveWeights.insert(e.w);
    }
  });
  mUnique_.forEach([&liveWeights](const MNode* n) {
    for (const auto& e : n->e) {
      liveWeights.insert(e.w);
    }
  });
  ctab_.garbageCollect(liveWeights);
  // O(1) logical invalidation of every compute table: entries become stale
  // and are either revalidated (operands + result survived, checked via the
  // incarnation stamps) or dropped on their next lookup, instead of being
  // eagerly wiped here.
  addVTable_.newGeneration();
  addMTable_.newGeneration();
  mulMVTable_.newGeneration();
  mulMMTable_.newGeneration();
  kronMTable_.newGeneration();
  kronVTable_.newGeneration();
  transposeTable_.newGeneration();
  innerTable_.newGeneration();
  normTable_.newGeneration();
  traceTable_.newGeneration();
  ++stats_.garbageCollections;
  stats_.nodesCollected += collected;
  return collected;
}

bool Package::maybeGarbageCollect() {
  if (injector_ != nullptr && injector_->onGcPoll()) {
    garbageCollect();
    return true;
  }
  const std::size_t live = liveNodes();
  if (governor_.active()) {
    const auto level = governor_.classify(live, bytesAllocated());
    governor_.observe(level, live);
    // Soft (or worse) pressure at a quiescent point: emergency-collect,
    // including chunk release — but only if the live count has grown since
    // the last emergency collection, so a mostly-live working set does not
    // trigger a futile full sweep on every step.
    if (level != ResourcePressure::None && live >= emergencyRearmLive_) {
      emergencyCollect();
      return true;
    }
  }
  if (live < gcThreshold_) {
    return false;
  }
  garbageCollect();
  const std::size_t remaining = liveNodes();
  if (remaining > gcThreshold_ / 2) {
    gcThreshold_ *= 2;  // mostly-live table: back off to amortize sweeps
  }
  return true;
}

std::size_t Package::emergencyCollect() {
  const obs::ScopedSpan span("dd.emergency-collect", obs::cat::kDd);
  garbageCollect();
  // Chunk release invalidates raw pointers held by stale compute-table
  // entries (their nodes sit on the free list inside the released chunks),
  // so the tables are hard-cleared — no revalidation possible — before any
  // memory is returned to the OS.
  addVTable_.clear();
  addMTable_.clear();
  mulMVTable_.clear();
  mulMMTable_.clear();
  kronMTable_.clear();
  kronVTable_.clear();
  transposeTable_.clear();
  innerTable_.clear();
  normTable_.clear();
  traceTable_.clear();
  const std::size_t released =
      vMem_.releaseFreeChunks() + mMem_.releaseFreeChunks();
  ++stats_.emergencyCollections;
  stats_.bytesReleased += released;
  const std::size_t live = liveNodes();
  emergencyRearmLive_ = live + std::max<std::size_t>(live / 8, 1024);
  return released;
}

// --------------------------------------------------------- node construction

template <std::size_t Arity>
std::size_t Package::normalizedNode(
    Qubit v, const std::array<CachedEdge<Arity>, Arity>& children,
    Node<Arity>*& node) {
  assert(v >= 0 && static_cast<std::size_t>(v) < numQubits_);
  checkResources();
  // Normalize: divide by the maximum-magnitude weight. Ties — including
  // *near*-ties within the canonicalization tolerance — resolve to the
  // lowest index. The tolerance matters: magnitudes that are equal up to
  // floating-point drift must pick the same index on every construction
  // path, or structurally identical subtrees stop being shared and the DD
  // degenerates (cf. the accuracy discussion in [21]).
  std::size_t top = Arity;
  double maxMag = 0.0;
  for (std::size_t i = 0; i < Arity; ++i) {
    const CachedEdge<Arity>& c = children[i];
    if (negligible(c.w)) {
      continue;
    }
    assert(c.p->isTerminal() ? v == 0 : c.p->v == v - 1);
    const double m = c.w.mag2();
    if (top == Arity || m > maxMag + ctab_.tolerance()) {
      top = i;
      maxMag = m;
    }
  }
  if (top == Arity) {
    return Arity;
  }

  const ComplexValue& topW = children[top].w;
  const Edge<Arity> zeroStub{terminal<Arity>(), czero()};
  std::array<Edge<Arity>, Arity> e;
  for (std::size_t i = 0; i < Arity; ++i) {
    const CachedEdge<Arity>& c = children[i];
    if (negligible(c.w)) {
      e[i] = zeroStub;
    } else if (i == top || c.w == topW) {
      e[i] = {c.p, cone()};  // w / w is exactly 1: no division, no lookup
    } else {
      const CWeight ratio = clookup(c.w / topW);
      e[i] = ratio->exactlyZero() ? zeroStub : Edge<Arity>{c.p, ratio};
    }
  }

  if constexpr (Arity == 2) {
    VNode* candidate = vMem_.get();
    candidate->v = v;
    candidate->e = e;
    node = vUnique_.lookup(candidate);
  } else {
    MNode* candidate = mMem_.get();
    candidate->v = v;
    candidate->e = e;
    // Structure classification, O(1) per node given the children's flags
    // (children are canonical, so theirs are already computed). The flags
    // are a pure function of the successor edges, so on a unique-table hit
    // the existing node necessarily carries the same flags.
    if (e[1].w->exactlyZero() && e[2].w->exactlyZero()) {
      const auto diagonalQuadrant = [](const MEdge& c) {
        return c.w->exactlyZero() || c.p->isDiagonal();
      };
      if (diagonalQuadrant(e[0]) && diagonalQuadrant(e[3])) {
        candidate->flags |= kNodeIsDiagonal;
        if (e[0].p == e[3].p && e[0].w == e[3].w && e[0].w == cone() &&
            e[0].p->isIdentity()) {
          candidate->flags |= kNodeIsIdentity;
        }
      }
    }
    node = mUnique_.lookup(candidate);
  }
  stats_.peakLiveNodes = std::max<std::uint64_t>(
      stats_.peakLiveNodes, vUnique_.liveCount() + mUnique_.liveCount());
  return top;
}

template <std::size_t Arity>
Package::CachedEdge<Arity> Package::makeNode(
    Qubit v, const std::array<CachedEdge<Arity>, Arity>& children) {
  Node<Arity>* node = nullptr;
  const std::size_t top = normalizedNode(v, children, node);
  return top == Arity ? zeroValue<Arity>()
                      : CachedEdge<Arity>{node, children[top].w};
}

VEdge Package::makeVNode(Qubit v, std::array<VEdge, 2> children) {
  VNode* node = nullptr;
  const std::size_t top = normalizedNode<2>(
      v, {valueOf(children[0]), valueOf(children[1])}, node);
  return top == 2 ? vZero() : VEdge{node, children[top].w};
}

MEdge Package::makeMNode(Qubit v, std::array<MEdge, 4> children) {
  MNode* node = nullptr;
  const std::size_t top = normalizedNode<4>(
      v,
      {valueOf(children[0]), valueOf(children[1]), valueOf(children[2]),
       valueOf(children[3])},
      node);
  return top == 4 ? mZero() : MEdge{node, children[top].w};
}

// -------------------------------------------------------- state construction

VEdge Package::makeZeroState() { return makeBasisState(0); }

VEdge Package::makeBasisState(std::uint64_t bits) {
  if (numQubits_ < 64 && (bits >> numQubits_) != 0) {
    throw std::invalid_argument("makeBasisState: bits exceed qubit count");
  }
  VEdge e = vOneTerminal();
  for (std::size_t q = 0; q < numQubits_; ++q) {
    const bool one = ((bits >> q) & 1U) != 0;
    e = makeVNode(static_cast<Qubit>(q),
                  one ? std::array{vZero(), e} : std::array{e, vZero()});
  }
  return e;
}

VEdge Package::buildDenseVector(Qubit level, std::span<const ComplexValue> amps,
                                std::uint64_t off, std::uint64_t dim) {
  pollAbort();
  if (level < 0) {
    return {&vTerminal_, clookup(amps[off])};
  }
  const std::uint64_t half = dim / 2;
  return makeVNode(level, {buildDenseVector(level - 1, amps, off, half),
                           buildDenseVector(level - 1, amps, off + half, half)});
}

VEdge Package::makeStateFromVector(std::span<const ComplexValue> amplitudes) {
  if (amplitudes.size() != (1ULL << numQubits_)) {
    throw std::invalid_argument("makeStateFromVector: size must be 2^n");
  }
  return buildDenseVector(static_cast<Qubit>(numQubits_) - 1, amplitudes, 0,
                          amplitudes.size());
}

VEdge Package::makeSmallStateFromVector(std::span<const ComplexValue> amplitudes) {
  if (!isPowerOfTwo(amplitudes.size()) ||
      amplitudes.size() > (1ULL << numQubits_)) {
    throw std::invalid_argument(
        "makeSmallStateFromVector: size must be a power of two within range");
  }
  const auto top = static_cast<Qubit>(log2OfPow2(amplitudes.size())) - 1;
  return buildDenseVector(top, amplitudes, 0, amplitudes.size());
}

// ------------------------------------------------------- matrix construction

MEdge Package::makeIdent() {
  return makeIdent(static_cast<Qubit>(numQubits_) - 1);
}

MEdge Package::makeIdent(Qubit topVar) {
  if (topVar < 0) {
    return mOneTerminal();
  }
  assert(static_cast<std::size_t>(topVar) < numQubits_);
  while (identities_.size() <= static_cast<std::size_t>(topVar)) {
    const auto q = static_cast<Qubit>(identities_.size());
    MEdge below = identities_.empty() ? mOneTerminal() : identities_.back();
    MEdge id = makeMNode(q, {below, mZero(), mZero(), below});
    incRef(id);  // pin against garbage collection
    identities_.push_back(id);
  }
  return identities_[static_cast<std::size_t>(topVar)];
}

MEdge Package::extendToFullWidth(MEdge e, const Controls& controls) {
  Controls sorted = controls;
  std::sort(sorted.begin(), sorted.end());
  const Qubit base = e.isTerminal() ? -1 : e.p->v;
  auto ctrl = sorted.begin();
  for (Qubit q = base + 1; q < static_cast<Qubit>(numQubits_); ++q) {
    while (ctrl != sorted.end() && ctrl->qubit < q) {
      ++ctrl;
    }
    if (ctrl != sorted.end() && ctrl->qubit == q) {
      MEdge id = makeIdent(q - 1);
      e = ctrl->positive ? makeMNode(q, {id, mZero(), mZero(), e})
                         : makeMNode(q, {e, mZero(), mZero(), id});
    } else {
      e = makeMNode(q, {e, mZero(), mZero(), e});
    }
  }
  return e;
}

MEdge Package::makeGateDD(const GateMatrix& u, Qubit target,
                          const Controls& controls) {
  const OpGuard guard(*this, "makeGateDD");
  if (target < 0 || static_cast<std::size_t>(target) >= numQubits_) {
    throw std::invalid_argument("makeGateDD: target out of range");
  }
  Controls sorted = controls;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& c : sorted) {
    if (c.qubit == target) {
      throw std::invalid_argument("makeGateDD: control equals target");
    }
    if (c.qubit < 0 || static_cast<std::size_t>(c.qubit) >= numQubits_) {
      throw std::invalid_argument("makeGateDD: control out of range");
    }
  }

  std::array<MEdge, 4> em;
  for (std::size_t i = 0; i < 4; ++i) {
    em[i] = u[i].approximatelyZero() ? mZero()
                                     : MEdge{&mTerminal_, clookup(u[i])};
  }

  auto ctrl = sorted.begin();
  // Levels below the target: tensor with identity, or embed the control
  // test (on the unsatisfied branch, diagonal entries contribute identity,
  // off-diagonal entries contribute zero).
  for (Qubit q = 0; q < target; ++q) {
    while (ctrl != sorted.end() && ctrl->qubit < q) {
      ++ctrl;
    }
    const bool isControl = ctrl != sorted.end() && ctrl->qubit == q;
    for (std::size_t i = 0; i < 4; ++i) {
      if (!isControl) {
        em[i] = makeMNode(q, {em[i], mZero(), mZero(), em[i]});
      } else if (i == 0 || i == 3) {
        MEdge id = makeIdent(q - 1);
        em[i] = ctrl->positive
                    ? makeMNode(q, {id, mZero(), mZero(), em[i]})
                    : makeMNode(q, {em[i], mZero(), mZero(), id});
      } else {
        em[i] = ctrl->positive
                    ? makeMNode(q, {mZero(), mZero(), mZero(), em[i]})
                    : makeMNode(q, {em[i], mZero(), mZero(), mZero()});
      }
    }
  }

  MEdge e = makeMNode(target, em);

  // Levels above the target.
  Controls above;
  for (const auto& c : sorted) {
    if (c.qubit > target) {
      above.push_back(c);
    }
  }
  return extendToFullWidth(e, above);
}

MEdge Package::buildPermutation(
    Qubit level, std::vector<std::pair<std::uint64_t, std::uint64_t>>& entries) {
  pollAbort();
  if (entries.empty()) {
    return mZero();
  }
  if (level < 0) {
    assert(entries.size() == 1);
    return mOneTerminal();
  }
  const std::uint64_t mask = 1ULL << level;
  std::array<std::vector<std::pair<std::uint64_t, std::uint64_t>>, 4> groups;
  for (const auto& [col, row] : entries) {
    const std::size_t i =
        ((row & mask) != 0 ? 2U : 0U) + ((col & mask) != 0 ? 1U : 0U);
    groups[i].emplace_back(col & ~mask, row & ~mask);
  }
  std::array<MEdge, 4> children;
  for (std::size_t i = 0; i < 4; ++i) {
    children[i] = buildPermutation(level - 1, groups[i]);
  }
  return makeMNode(level, children);
}

MEdge Package::makePermutationDD(const std::vector<std::uint64_t>& perm,
                                 const Controls& controls) {
  const OpGuard guard(*this, "makePermutationDD");
  if (!isPowerOfTwo(perm.size())) {
    throw std::invalid_argument("makePermutationDD: size must be a power of two");
  }
  const auto t = static_cast<Qubit>(log2OfPow2(perm.size()));
  if (static_cast<std::size_t>(t) > numQubits_) {
    throw std::invalid_argument("makePermutationDD: too many target qubits");
  }
  {
    std::vector<bool> seen(perm.size(), false);
    for (const auto y : perm) {
      if (y >= perm.size() || seen[y]) {
        throw std::invalid_argument("makePermutationDD: perm is not a bijection");
      }
      seen[y] = true;
    }
  }
  for (const auto& c : controls) {
    if (c.qubit < t || static_cast<std::size_t>(c.qubit) >= numQubits_) {
      throw std::invalid_argument(
          "makePermutationDD: controls must lie above the permuted qubits");
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(perm.size());
  for (std::uint64_t col = 0; col < perm.size(); ++col) {
    entries.emplace_back(col, perm[col]);
  }
  MEdge e = buildPermutation(t - 1, entries);
  return extendToFullWidth(e, controls);
}

MEdge Package::buildDense(Qubit level, std::span<const ComplexValue> rowMajor,
                          std::uint64_t rowOff, std::uint64_t colOff,
                          std::uint64_t dim) {
  pollAbort();
  if (level < 0) {
    const std::uint64_t fullDim = static_cast<std::uint64_t>(
        std::llround(std::sqrt(static_cast<double>(rowMajor.size()))));
    return {&mTerminal_, clookup(rowMajor[rowOff * fullDim + colOff])};
  }
  const std::uint64_t half = dim / 2;
  std::array<MEdge, 4> children;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t r = rowOff + ((i & 2U) != 0 ? half : 0);
    const std::uint64_t c = colOff + ((i & 1U) != 0 ? half : 0);
    children[i] = buildDense(level - 1, rowMajor, r, c, half);
  }
  return makeMNode(level, children);
}

MEdge Package::makeMatrixFromDense(std::span<const ComplexValue> rowMajor,
                                   const Controls& controls) {
  std::uint64_t dim = 1;
  while (dim * dim < rowMajor.size()) {
    dim *= 2;
  }
  if (dim * dim != rowMajor.size() || !isPowerOfTwo(dim)) {
    throw std::invalid_argument("makeMatrixFromDense: size must be 4^k");
  }
  const auto t = static_cast<Qubit>(log2OfPow2(dim));
  if (static_cast<std::size_t>(t) > numQubits_) {
    throw std::invalid_argument("makeMatrixFromDense: too many qubits");
  }
  MEdge e = buildDense(t - 1, rowMajor, 0, 0, dim);
  return extendToFullWidth(e, controls);
}

MEdge Package::makeSmallMatrixFromDense(std::span<const ComplexValue> rowMajor) {
  std::uint64_t dim = 1;
  while (dim * dim < rowMajor.size()) {
    dim *= 2;
  }
  if (dim * dim != rowMajor.size()) {
    throw std::invalid_argument("makeSmallMatrixFromDense: size must be 4^k");
  }
  const auto t = static_cast<Qubit>(log2OfPow2(dim));
  if (static_cast<std::size_t>(t) > numQubits_) {
    throw std::invalid_argument("makeSmallMatrixFromDense: too many qubits");
  }
  return buildDense(t - 1, rowMajor, 0, 0, dim);
}

// ---------------------------------------------------------------- addition

VEdge Package::add(const VEdge& a, const VEdge& b) {
  const OpGuard guard(*this, "add(vector)");
  const obs::ScopedSpan span("dd.add.v", obs::cat::kDd);
  return canonical(addRec(valueOf(a), valueOf(b)));
}
MEdge Package::add(const MEdge& a, const MEdge& b) {
  const OpGuard guard(*this, "add(matrix)");
  const obs::ScopedSpan span("dd.add.m", obs::cat::kDd);
  return canonical(addRec(valueOf(a), valueOf(b)));
}

template <std::size_t Arity>
Package::CachedEdge<Arity> Package::addRec(const CachedEdge<Arity>& a,
                                           const CachedEdge<Arity>& b) {
  ++stats_.recursiveAddCalls;
  pollAbort();
  // Every call snaps at most one weight: the surviving operand, the
  // same-node sum or the scale-free ratio. Left as values, the weights of
  // a lone branch and of a cancelling sum carry rounding noise that the
  // cancellation amplifies past the tolerance, and shared subtrees split
  // (sequential Grover blows up from n = 16 on).
  const auto snapped = [this](const CachedEdge<Arity>& e) {
    const CWeight w = clookup(e.w);
    return w->exactlyZero() ? zeroValue<Arity>() : CachedEdge<Arity>{e.p, *w};
  };
  if (negligible(a.w)) {
    return snapped(b);
  }
  if (negligible(b.w)) {
    return snapped(a);
  }
  if (a.p == b.p) {
    return snapped({a.p, a.w + b.w});
  }

  // The first operand is factored out unless that makes |ratio| exceed
  // 2^20, which keeps key ratios bounded. Factoring out the operand of
  // larger magnitude keeps every ratio in the unit disc, but measured worse
  // on combined Grover operators (EXPERIMENTS.md, "Add operand order").
  const bool swap = b.w.mag2() > a.w.mag2() * 0x1p40;
  const CachedEdge<Arity>& x = swap ? b : a;
  const CachedEdge<Arity>& y = swap ? a : b;
  // Scale-free key: x.w·x̂ + y.w·ŷ = x.w·(x̂ + (y.w / x.w)·ŷ). The table
  // holds the bracket, so sums that differ by a common scalar share it.
  const CWeight ratio = y.w == x.w ? cone() : clookup(y.w / x.w);
  if (ratio->exactlyZero()) {
    return x;  // y vanishes next to x
  }
  const Edge<Arity> kx{x.p, cone()};
  const CachedEdge<Arity> ky{y.p, *ratio};
  auto& table = addTable<Arity>();
  CachedEdge<Arity> sum;
  if (!table.lookup(kx, ky, sum, revalidator())) {
    assert(!x.p->isTerminal() && x.p->v == y.p->v);
    std::array<CachedEdge<Arity>, Arity> r;
    // x's children carry their node weights (x.w = 1), y's the ratio.
    for (std::size_t i = 0; i < Arity; ++i) {
      const Edge<Arity>& xe = x.p->e[i];
      const Edge<Arity>& ye = y.p->e[i];
      r[i] = ye.w->exactlyZero()
                 ? valueOf(xe)
                 : addRec(valueOf(xe), CachedEdge<Arity>{ye.p, *ratio * *ye.w});
    }
    sum = makeNode(x.p->v, r);
    table.insert(kx, ky, sum, opStamp(kx, ky, sum));
  }
  return {sum.p, sum.w * x.w};
}

// ------------------------------------------------------------ multiplication

VEdge Package::multiply(const MEdge& m, const VEdge& v) {
  const OpGuard guard(*this, "multiply(MxV)");
  const obs::ScopedSpan span("dd.multiply.mv", obs::cat::kDd);
  ++stats_.matrixVectorMultiplications;
  if (m.w->exactlyZero() || v.w->exactlyZero()) {
    return vZero();
  }
  // Structure-aware short circuit: a (scalar multiple of the) identity acts
  // trivially, no recursion or cache traffic needed.
  if (m.p->isIdentity() && !m.p->isTerminal() && m.p->v == v.p->v) {
    ++stats_.identitySkipsMV;
    return canonical(CachedVEdge{v.p, *m.w * *v.w});
  }
  const CachedVEdge r = m.p->isTerminal()
                            ? CachedVEdge{&vTerminal_, {1.0, 0.0}}
                            : mulNodesMV(m.p, v.p);
  return canonical(CachedVEdge{r.p, *m.w * *v.w * r.w});
}

// Core of the paper's Fig. 3: four sub-products combined into two
// intermediate vectors which are then added (Fig. 4). Weights of the operand
// edges are factored out by the caller, so the cache is keyed on node pairs
// and a cached product is reusable under any scalar prefactor.
Package::CachedVEdge Package::mulNodesMV(MNode* a, VNode* b) {
  pollAbort();
  assert(!a->isTerminal() && a->v == b->v);
  // I·v = v: gate DDs pad every non-target level with explicit identity
  // chains; the cached flag resolves the whole sub-multiplication in O(1)
  // instead of descending the chain to the terminal.
  if (a->isIdentity()) {
    ++stats_.identitySkipsMV;
    return {b, {1.0, 0.0}};
  }
  // Counted past the identity check: every sub-product is either a skip
  // or a recursive call, never both (see identitySkipRate()).
  ++stats_.recursiveMulVCalls;
  const MEdge ka{a, cone()};
  const VEdge kb{b, cone()};
  if (CachedVEdge cached; mulMVTable_.lookup(ka, kb, cached, revalidator())) {
    return cached;
  }

  const Qubit var = a->v;
  std::array<CachedVEdge, 2> r;
  for (std::size_t i = 0; i < 2; ++i) {
    CachedVEdge sum = zeroValue<2>();
    for (std::size_t k = 0; k < 2; ++k) {
      const MEdge& me = a->e[2 * i + k];
      const VEdge& ve = b->e[k];
      if (me.w->exactlyZero() || ve.w->exactlyZero()) {
        continue;
      }
      CachedVEdge prod{ve.p, *me.w * *ve.w};
      if (me.p->isTerminal()) {
        assert(ve.p->isTerminal());
      } else if (me.p->isIdentity()) {
        ++stats_.identitySkipsMV;
      } else {
        const CachedVEdge subProd = mulNodesMV(me.p, ve.p);
        prod = {subProd.p, prod.w * subProd.w};
      }
      sum = negligible(sum.w) ? prod : addRec(sum, prod);
    }
    r[i] = sum;
  }
  const CachedVEdge result = makeNode(var, r);
  mulMVTable_.insert(ka, kb, result, opStamp(ka, kb, result));
  return result;
}

MEdge Package::multiply(const MEdge& a, const MEdge& b) {
  const OpGuard guard(*this, "multiply(MxM)");
  const obs::ScopedSpan span("dd.multiply.mm", obs::cat::kDd);
  ++stats_.matrixMatrixMultiplications;
  if (a.w->exactlyZero() || b.w->exactlyZero()) {
    return mZero();
  }
  // Structure-aware short circuits: I·M = M and M·I = M up to a scalar.
  if (a.p->isIdentity() && !a.p->isTerminal() && a.p->v == b.p->v) {
    ++stats_.identitySkipsMM;
    return canonical(CachedMEdge{b.p, *a.w * *b.w});
  }
  if (b.p->isIdentity() && !b.p->isTerminal() && a.p->v == b.p->v) {
    ++stats_.identitySkipsMM;
    return canonical(CachedMEdge{a.p, *a.w * *b.w});
  }
  const CachedMEdge r = a.p->isTerminal()
                            ? CachedMEdge{&mTerminal_, {1.0, 0.0}}
                            : mulNodesMM(a.p, b.p);
  return canonical(CachedMEdge{r.p, *a.w * *b.w * r.w});
}

Package::CachedMEdge Package::mulNodesMM(MNode* a, MNode* b) {
  pollAbort();
  assert(!a->isTerminal() && a->v == b->v);
  // I·M = M / M·I = M without touching the cache or descending the chain.
  if (a->isIdentity()) {
    ++stats_.identitySkipsMM;
    return {b, {1.0, 0.0}};
  }
  if (b->isIdentity()) {
    ++stats_.identitySkipsMM;
    return {a, {1.0, 0.0}};
  }
  ++stats_.recursiveMulMCalls;  // past the identity check, as in MxV
  const MEdge ka{a, cone()};
  const MEdge kb{b, cone()};
  if (CachedMEdge cached; mulMMTable_.lookup(ka, kb, cached, revalidator())) {
    return cached;
  }

  const Qubit var = a->v;
  // Product of one quadrant pair (operand weights folded into the result).
  const auto mulEdges = [this](const MEdge& ae, const MEdge& be) -> CachedMEdge {
    if (ae.w->exactlyZero() || be.w->exactlyZero()) {
      return zeroValue<4>();
    }
    const ComplexValue w = *ae.w * *be.w;
    if (ae.p->isTerminal()) {
      assert(be.p->isTerminal());
      return {&mTerminal_, w};
    }
    if (ae.p->isIdentity()) {
      ++stats_.identitySkipsMM;
      return {be.p, w};
    }
    if (be.p->isIdentity()) {
      ++stats_.identitySkipsMM;
      return {ae.p, w};
    }
    const CachedMEdge subProd = mulNodesMM(ae.p, be.p);
    return {subProd.p, w * subProd.w};
  };

  std::array<CachedMEdge, 4> r;
  if (a->isDiagonal() && b->isDiagonal()) {
    // diag·diag stays diagonal: both off-diagonal quadrants (and every
    // cross term of the diagonal ones) vanish structurally.
    ++stats_.diagonalFastPathsMM;
    r[1] = zeroValue<4>();
    r[2] = zeroValue<4>();
    r[0] = mulEdges(a->e[0], b->e[0]);
    r[3] = mulEdges(a->e[3], b->e[3]);
  } else {
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        CachedMEdge sum = zeroValue<4>();
        for (std::size_t k = 0; k < 2; ++k) {
          const CachedMEdge prod = mulEdges(a->e[2 * i + k], b->e[2 * k + j]);
          if (negligible(prod.w)) {
            continue;
          }
          sum = negligible(sum.w) ? prod : addRec(sum, prod);
        }
        r[2 * i + j] = sum;
      }
    }
  }
  const CachedMEdge result = makeNode(var, r);
  mulMMTable_.insert(ka, kb, result, opStamp(ka, kb, result));
  return result;
}

// -------------------------------------------------------- kronecker product

MEdge Package::kronecker(const MEdge& top, const MEdge& bottom) {
  const OpGuard guard(*this, "kronecker(matrix)");
  return canonical(kronRec(top, bottom));
}

VEdge Package::kronecker(const VEdge& top, const VEdge& bottom) {
  const OpGuard guard(*this, "kronecker(vector)");
  return canonical(kronRec(top, bottom));
}

template <std::size_t Arity>
Package::CachedEdge<Arity> Package::kronRec(const Edge<Arity>& a,
                                            const Edge<Arity>& b) {
  pollAbort();
  if (a.w->exactlyZero() || b.w->exactlyZero()) {
    return zeroValue<Arity>();
  }
  if (a.p->isTerminal()) {
    return {b.p, *a.w * *b.w};
  }
  auto& table = kronTable<Arity>();
  if (CachedEdge<Arity> cached; table.lookup(a, b, cached, revalidator())) {
    return cached;
  }
  const Qubit shift = b.p->isTerminal() ? 0 : b.p->v + 1;
  // kronRec consumes full edges, so the children's weights are folded in by
  // the recursion; only a's own top weight remains to be applied.
  std::array<CachedEdge<Arity>, Arity> children;
  for (std::size_t i = 0; i < Arity; ++i) {
    children[i] = kronRec(a.p->e[i], b);
  }
  CachedEdge<Arity> result = makeNode(a.p->v + shift, children);
  result.w = result.w * *a.w;
  table.insert(a, b, result, opStamp(a, b, result));
  return result;
}

// ------------------------------------------------------ conjugate transpose

MEdge Package::conjugateTranspose(const MEdge& m) {
  const OpGuard guard(*this, "conjugateTranspose");
  const CachedMEdge r = transposeRec(m.p);
  return canonical(CachedMEdge{r.p, m.w->conj() * r.w});
}

Package::CachedMEdge Package::transposeRec(MNode* p) {
  pollAbort();
  // Identity chains are real and symmetric: their conjugate transpose is
  // the chain itself.
  if (p->isTerminal() || p->isIdentity()) {
    return {p, {1.0, 0.0}};
  }
  const MEdge key{p, cone()};
  if (CachedMEdge cached; transposeTable_.lookup(key, cached, unaryRevalidator())) {
    return cached;
  }
  std::array<CachedMEdge, 4> children;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      const MEdge& src = p->e[2 * j + i];  // transpose: swap quadrant index
      if (src.w->exactlyZero()) {
        children[2 * i + j] = zeroValue<4>();
      } else {
        const CachedMEdge sub = transposeRec(src.p);
        children[2 * i + j] = {sub.p, src.w->conj() * sub.w};
      }
    }
  }
  const CachedMEdge result = makeNode(p->v, children);
  transposeTable_.insert(key, result, opStamp(key, result));
  return result;
}

// ------------------------------------------------- inner products and norms

ComplexValue Package::innerProduct(const VEdge& a, const VEdge& b) {
  const OpGuard guard(*this, "innerProduct");
  if (a.w->exactlyZero() || b.w->exactlyZero()) {
    return {0.0, 0.0};
  }
  return a.w->conj() * *b.w * innerProductRec(a.p, b.p);
}

ComplexValue Package::innerProductRec(VNode* a, VNode* b) {
  pollAbort();
  if (a->isTerminal()) {
    assert(b->isTerminal());
    return {1.0, 0.0};
  }
  const VEdge ka{a, cone()};
  const VEdge kb{b, cone()};
  if (CVal cached; innerTable_.lookup(ka, kb, cached, revalidator())) {
    return cached.v;
  }
  ComplexValue sum{0.0, 0.0};
  for (std::size_t i = 0; i < 2; ++i) {
    const VEdge& ea = a->e[i];
    const VEdge& eb = b->e[i];
    if (ea.w->exactlyZero() || eb.w->exactlyZero()) {
      continue;
    }
    sum += ea.w->conj() * *eb.w * innerProductRec(ea.p, eb.p);
  }
  const CVal cached{sum};
  innerTable_.insert(ka, kb, cached, opStamp(ka, kb, cached));
  return sum;
}

double Package::fidelity(const VEdge& a, const VEdge& b) {
  return innerProduct(a, b).mag2();
}

ComplexValue Package::expectationValue(const MEdge& observable, const VEdge& v) {
  return innerProduct(v, multiply(observable, v));
}

ComplexValue Package::trace(const MEdge& m) {
  const OpGuard guard(*this, "trace");
  if (m.w->exactlyZero()) {
    return {0.0, 0.0};
  }
  return *m.w * traceNode(m.p);
}

ComplexValue Package::traceNode(MNode* p) {
  pollAbort();
  if (p->isTerminal()) {
    return {1.0, 0.0};
  }
  // Tr(I_{2^k}) = 2^k for an identity chain topped at level p->v.
  if (p->isIdentity()) {
    return {std::ldexp(1.0, p->v + 1), 0.0};
  }
  const MEdge key{p, cone()};
  if (CVal cached; traceTable_.lookup(key, cached, unaryRevalidator())) {
    return cached.v;
  }
  ComplexValue sum{0.0, 0.0};
  for (const std::size_t i : {0UL, 3UL}) {  // diagonal quadrants
    const MEdge& e = p->e[i];
    if (!e.w->exactlyZero()) {
      sum += *e.w * traceNode(e.p);
    }
  }
  const CVal cached{sum};
  traceTable_.insert(key, cached, opStamp(key, cached));
  return sum;
}

double Package::norm2(const VEdge& v) {
  const OpGuard guard(*this, "norm2");
  if (v.w->exactlyZero()) {
    return 0.0;
  }
  return v.w->mag2() * normNode(v.p);
}

double Package::normNode(VNode* p) {
  pollAbort();
  if (p->isTerminal()) {
    return 1.0;
  }
  const VEdge key{p, cone()};
  if (DVal cached; normTable_.lookup(key, cached, unaryRevalidator())) {
    return cached.d;
  }
  double sum = 0.0;
  for (const auto& e : p->e) {
    if (!e.w->exactlyZero()) {
      sum += e.w->mag2() * normNode(e.p);
    }
  }
  const DVal cached{sum};
  normTable_.insert(key, cached, opStamp(key, cached));
  return sum;
}

// ---------------------------------------------------------------- inspection

ComplexValue Package::getAmplitude(const VEdge& v, std::uint64_t index) {
  ComplexValue amp = *v.w;
  const VNode* p = v.p;
  while (!p->isTerminal()) {
    const VEdge& e = p->e[(index >> p->v) & 1U];
    if (e.w->exactlyZero()) {
      return {0.0, 0.0};
    }
    amp *= *e.w;
    p = e.p;
  }
  return amp;
}

namespace {
void fillVector(const VEdge& e, Qubit level, std::uint64_t offset,
                ComplexValue factor, std::vector<ComplexValue>& out) {
  if (e.w->exactlyZero()) {
    return;
  }
  const ComplexValue f = factor * *e.w;
  if (level < 0) {
    out[offset] = f;
    return;
  }
  const std::uint64_t half = 1ULL << level;
  fillVector(e.p->e[0], level - 1, offset, f, out);
  fillVector(e.p->e[1], level - 1, offset + half, f, out);
}

void fillMatrix(const MEdge& e, Qubit level, std::uint64_t rowOff,
                std::uint64_t colOff, std::uint64_t dim, ComplexValue factor,
                std::vector<ComplexValue>& out) {
  if (e.w->exactlyZero()) {
    return;
  }
  const ComplexValue f = factor * *e.w;
  if (level < 0) {
    out[rowOff * dim + colOff] = f;
    return;
  }
  const std::uint64_t half = 1ULL << level;
  for (std::size_t i = 0; i < 4; ++i) {
    fillMatrix(e.p->e[i], level - 1, rowOff + ((i & 2U) != 0 ? half : 0),
               colOff + ((i & 1U) != 0 ? half : 0), dim, f, out);
  }
}
}  // namespace

std::vector<ComplexValue> Package::getVector(const VEdge& v) {
  std::vector<ComplexValue> out(1ULL << numQubits_, ComplexValue{});
  fillVector(v, static_cast<Qubit>(numQubits_) - 1, 0, {1.0, 0.0}, out);
  return out;
}

std::vector<ComplexValue> Package::getMatrix(const MEdge& m) {
  const std::uint64_t dim = 1ULL << numQubits_;
  std::vector<ComplexValue> out(dim * dim, ComplexValue{});
  fillMatrix(m, static_cast<Qubit>(numQubits_) - 1, 0, 0, dim, {1.0, 0.0}, out);
  return out;
}

namespace {
template <std::size_t Arity>
std::size_t countNodes(Node<Arity>* p, std::uint32_t mark) {
  if (p->visit == mark) {
    return 0;
  }
  p->visit = mark;
  if (p->isTerminal()) {
    return 1;
  }
  std::size_t n = 1;
  for (const auto& e : p->e) {
    n += countNodes(e.p, mark);
  }
  return n;
}
}  // namespace

std::size_t Package::size(const VEdge& v) const {
  // Allocation-free DFS: stamp visited nodes with a fresh sweep number
  // instead of building a hash set. size() runs after every simulation
  // step, so this is on the per-gate hot path.
  return countNodes(v.p, nextVisitMark());
}

std::size_t Package::size(const MEdge& m) const {
  return countNodes(m.p, nextVisitMark());
}

// --------------------------------------------------------------- measurement

std::uint64_t Package::measureAll(VEdge& v, std::mt19937_64& rng, bool collapse) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::uint64_t result = 0;
  const VNode* p = v.p;
  while (p != nullptr && !p->isTerminal()) {
    const double m0 =
        p->e[0].w->exactlyZero() ? 0.0 : p->e[0].w->mag2() * normNode(p->e[0].p);
    const double m1 =
        p->e[1].w->exactlyZero() ? 0.0 : p->e[1].w->mag2() * normNode(p->e[1].p);
    const double p1 = m1 / (m0 + m1);
    const bool one = dist(rng) < p1;
    if (one) {
      result |= 1ULL << p->v;
    }
    p = p->e[one ? 1 : 0].p;
  }
  if (collapse) {
    VEdge collapsed = makeBasisState(result);
    incRef(collapsed);
    decRef(v);
    v = collapsed;
  }
  return result;
}

double Package::probabilityOfOne(const VEdge& v, Qubit q) {
  if (q < 0 || static_cast<std::size_t>(q) >= numQubits_) {
    throw std::invalid_argument("probabilityOfOne: qubit out of range");
  }
  if (v.w->exactlyZero()) {
    return 0.0;
  }
  // Mass of all basis states with bit q set, divided by the total norm.
  std::unordered_map<const VNode*, double> memo;
  auto massOne = [&](auto&& self, const VNode* p) -> double {
    if (const auto it = memo.find(p); it != memo.end()) {
      return it->second;
    }
    double m = 0.0;
    if (p->v == q) {
      const VEdge& e1 = p->e[1];
      m = e1.w->exactlyZero() ? 0.0 : e1.w->mag2() * normNode(e1.p);
    } else {
      assert(p->v > q);
      for (const auto& e : p->e) {
        if (!e.w->exactlyZero()) {
          m += e.w->mag2() * self(self, e.p);
        }
      }
    }
    memo.emplace(p, m);
    return m;
  };
  const double total = norm2(v);
  return v.w->mag2() * massOne(massOne, v.p) / total;
}

std::map<std::uint64_t, std::size_t> Package::sampleCounts(const VEdge& v,
                                                           std::size_t shots,
                                                           std::mt19937_64& rng) {
  std::map<std::uint64_t, std::size_t> histogram;
  VEdge state = v;  // measureAll without collapse leaves the edge untouched
  for (std::size_t s = 0; s < shots; ++s) {
    ++histogram[measureAll(state, rng, /*collapse=*/false)];
  }
  return histogram;
}

int Package::measureOneCollapsing(VEdge& v, Qubit q, std::mt19937_64& rng) {
  if (q < 0 || static_cast<std::size_t>(q) >= numQubits_) {
    throw std::invalid_argument("measureOneCollapsing: qubit out of range");
  }
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  const double p1 = probabilityOfOne(v, q);
  const bool one = dist(rng) < p1;
  const double prob = one ? p1 : 1.0 - p1;

  static constexpr GateMatrix kProject0{
      ComplexValue{1, 0}, ComplexValue{0, 0}, ComplexValue{0, 0}, ComplexValue{0, 0}};
  static constexpr GateMatrix kProject1{
      ComplexValue{0, 0}, ComplexValue{0, 0}, ComplexValue{0, 0}, ComplexValue{1, 0}};
  const MEdge projector = makeGateDD(one ? kProject1 : kProject0, q);
  VEdge projected = multiply(projector, v);
  projected.w = clookup(*projected.w * (1.0 / std::sqrt(prob)));
  incRef(projected);
  decRef(v);
  v = projected;
  return one ? 1 : 0;
}

}  // namespace ddsim::dd
