#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "baseline/dense_matrix.hpp"
#include "dd/package.hpp"
#include "ir/gate.hpp"
#include "test_util.hpp"

namespace ddsim::dd {
namespace {

using baseline::DenseMatrix;
using Cx = std::complex<double>;

std::vector<Cx> toStdVector(const std::vector<ComplexValue>& v) {
  std::vector<Cx> out;
  out.reserve(v.size());
  for (const auto& a : v) {
    out.push_back(a.toStd());
  }
  return out;
}

// ------------------------------------------------------------------ addition

TEST(DDOps, AddMatchesElementwiseSum) {
  Package p(5);
  std::mt19937_64 rng(101);
  const auto a = test::randomAmplitudes(5, rng);
  const auto b = test::randomAmplitudes(5, rng);
  const VEdge da = p.makeStateFromVector(a);
  const VEdge db = p.makeStateFromVector(b);
  const VEdge sum = p.add(da, db);
  const auto got = p.getVector(sum);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].r, a[i].r + b[i].r, 1e-9);
    EXPECT_NEAR(got[i].i, a[i].i + b[i].i, 1e-9);
  }
}

TEST(DDOps, AddIsCommutative) {
  Package p(4);
  std::mt19937_64 rng(102);
  const VEdge da = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  const VEdge db = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  const VEdge ab = p.add(da, db);
  const VEdge ba = p.add(db, da);
  EXPECT_EQ(ab.p, ba.p);
  EXPECT_EQ(ab.w, ba.w);
}

TEST(DDOps, AddWithZeroIsIdentity) {
  Package p(3);
  std::mt19937_64 rng(103);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(3, rng));
  const VEdge sum = p.add(v, p.vZero());
  EXPECT_EQ(sum.p, v.p);
  EXPECT_EQ(sum.w, v.w);
}

TEST(DDOps, AddOppositeStatesIsZero) {
  Package p(3);
  std::mt19937_64 rng(104);
  auto amps = test::randomAmplitudes(3, rng);
  const VEdge v = p.makeStateFromVector(amps);
  for (auto& a : amps) {
    a = a * -1.0;
  }
  const VEdge neg = p.makeStateFromVector(amps);
  const VEdge sum = p.add(v, neg);
  EXPECT_TRUE(sum.isZeroTerminal());
}

TEST(DDOps, MatrixAddMatchesDense) {
  Package p(3);
  std::mt19937_64 rng(105);
  std::normal_distribution<double> dist;
  std::vector<ComplexValue> ma(64);
  std::vector<ComplexValue> mb(64);
  for (std::size_t i = 0; i < 64; ++i) {
    ma[i] = {dist(rng), dist(rng)};
    mb[i] = {dist(rng), dist(rng)};
  }
  const MEdge sum = p.add(p.makeMatrixFromDense(ma), p.makeMatrixFromDense(mb));
  const auto got = p.getMatrix(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(got[i].r, ma[i].r + mb[i].r, 1e-9);
    EXPECT_NEAR(got[i].i, ma[i].i + mb[i].i, 1e-9);
  }
}

// ------------------------------------------------------- gate DDs vs. dense

struct GateCase {
  ir::GateType type;
  std::vector<double> params;
};

// Named printer: without it gtest dumps the raw struct bytes (padding and
// the vector's heap pointer), so the discovered test names change from run
// to run.
void PrintTo(const GateCase& c, std::ostream* os) {
  *os << ir::gateName(c.type);
  if (!c.params.empty()) {
    *os << '(';
    for (std::size_t i = 0; i < c.params.size(); ++i) {
      *os << (i == 0 ? "" : ",") << c.params[i];
    }
    *os << ')';
  }
}

class GateDDTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateDDTest, MatchesDenseExpansion) {
  const auto& [type, params] = GetParam();
  const GateMatrix g =
      ir::gateMatrix(type, params.empty() ? nullptr : params.data());
  // Sweep targets and control configurations on 4 qubits.
  Package p(4);
  const std::vector<Controls> controlSets = {
      {},
      {Control{2}},
      {Control{0, false}},
      {Control{2}, Control{0}},
      {Control{3, false}, Control{0, true}},
  };
  for (Qubit target = 0; target < 4; ++target) {
    for (const auto& controls : controlSets) {
      bool clash = false;
      for (const auto& c : controls) {
        clash |= c.qubit == target;
      }
      if (clash) {
        continue;
      }
      const MEdge dd = p.makeGateDD(g, target, controls);
      const DenseMatrix expected = baseline::expandGate(g, 4, target, controls);
      const auto got = p.getMatrix(dd);
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::size_t r = i / 16;
        const std::size_t c = i % 16;
        EXPECT_NEAR(got[i].r, expected.at(r, c).real(), 1e-10)
            << "target " << target << " entry " << i;
        EXPECT_NEAR(got[i].i, expected.at(r, c).imag(), 1e-10);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateDDTest,
    ::testing::Values(GateCase{ir::GateType::I, {}}, GateCase{ir::GateType::X, {}},
                      GateCase{ir::GateType::Y, {}}, GateCase{ir::GateType::Z, {}},
                      GateCase{ir::GateType::H, {}}, GateCase{ir::GateType::S, {}},
                      GateCase{ir::GateType::Sdg, {}},
                      GateCase{ir::GateType::T, {}},
                      GateCase{ir::GateType::Tdg, {}},
                      GateCase{ir::GateType::SX, {}},
                      GateCase{ir::GateType::SXdg, {}},
                      GateCase{ir::GateType::SY, {}},
                      GateCase{ir::GateType::SYdg, {}},
                      GateCase{ir::GateType::RX, {0.7}},
                      GateCase{ir::GateType::RY, {-1.3}},
                      GateCase{ir::GateType::RZ, {2.1}},
                      GateCase{ir::GateType::Phase, {0.9}},
                      GateCase{ir::GateType::U, {0.5, 1.1, -0.4}}));

TEST(GateDD, AllGateMatricesAreUnitary) {
  for (const auto type :
       {ir::GateType::I, ir::GateType::X, ir::GateType::Y, ir::GateType::Z,
        ir::GateType::H, ir::GateType::S, ir::GateType::Sdg, ir::GateType::T,
        ir::GateType::Tdg, ir::GateType::SX, ir::GateType::SXdg,
        ir::GateType::SY, ir::GateType::SYdg}) {
    EXPECT_TRUE(DenseMatrix::fromGate(ir::gateMatrix(type)).isUnitary())
        << ir::gateName(type);
  }
  const double params[3] = {0.3, -0.8, 1.9};
  for (const auto type : {ir::GateType::RX, ir::GateType::RY, ir::GateType::RZ,
                          ir::GateType::Phase, ir::GateType::U}) {
    EXPECT_TRUE(DenseMatrix::fromGate(ir::gateMatrix(type, params)).isUnitary())
        << ir::gateName(type);
  }
}

TEST(GateDD, SqrtGatesSquareToPauli) {
  const DenseMatrix sx = DenseMatrix::fromGate(ir::gateMatrix(ir::GateType::SX));
  const DenseMatrix x = DenseMatrix::fromGate(ir::gateMatrix(ir::GateType::X));
  EXPECT_TRUE((sx * sx).approxEquals(x, 1e-12));
  const DenseMatrix sy = DenseMatrix::fromGate(ir::gateMatrix(ir::GateType::SY));
  const DenseMatrix y = DenseMatrix::fromGate(ir::gateMatrix(ir::GateType::Y));
  EXPECT_TRUE((sy * sy).approxEquals(y, 1e-12));
}

// ------------------------------------------------------------ multiplication

TEST(DDOps, MatrixVectorMatchesDense) {
  Package p(4);
  std::mt19937_64 rng(106);
  const auto amps = test::randomAmplitudes(4, rng);
  const VEdge v = p.makeStateFromVector(amps);
  const GateMatrix h = ir::gateMatrix(ir::GateType::H);
  for (Qubit t = 0; t < 4; ++t) {
    const VEdge got = p.multiply(p.makeGateDD(h, t), v);
    const auto expected = baseline::expandGate(h, 4, t) * toStdVector(amps);
    test::expectAmplitudesNear(p.getVector(got), expected);
  }
}

TEST(DDOps, MatrixMatrixMatchesDense) {
  Package p(3);
  const GateMatrix h = ir::gateMatrix(ir::GateType::H);
  const GateMatrix x = ir::gateMatrix(ir::GateType::X);
  const MEdge hd = p.makeGateDD(h, 0);
  const MEdge cx = p.makeGateDD(x, 1, {Control{0}});
  const MEdge prod = p.multiply(cx, hd);

  const DenseMatrix expected =
      baseline::expandGate(x, 3, 1, {Control{0}}) * baseline::expandGate(h, 3, 0);
  const auto got = p.getMatrix(prod);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].r, expected.at(i / 8, i % 8).real(), 1e-10);
    EXPECT_NEAR(got[i].i, expected.at(i / 8, i % 8).imag(), 1e-10);
  }
}

TEST(DDOps, AssociativityOfProductChains) {
  // (M3 M2) M1 v == M3 (M2 (M1 v)) — the algebraic fact behind Eq. 1 vs 2.
  Package p(4);
  std::mt19937_64 rng(107);
  const VEdge v = p.makeStateFromVector(test::randomAmplitudes(4, rng));
  const MEdge m1 = p.makeGateDD(ir::gateMatrix(ir::GateType::H), 0);
  const MEdge m2 = p.makeGateDD(ir::gateMatrix(ir::GateType::X), 2, {Control{0}});
  const MEdge m3 = p.makeGateDD(ir::gateMatrix(ir::GateType::T), 3);

  const VEdge seq = p.multiply(m3, p.multiply(m2, p.multiply(m1, v)));
  const VEdge combined = p.multiply(p.multiply(m3, p.multiply(m2, m1)), v);
  EXPECT_EQ(seq.p, combined.p);
  EXPECT_NEAR(p.fidelity(seq, combined), 1.0, 1e-10);
}

TEST(DDOps, ZeroShortCircuits) {
  Package p(3);
  const MEdge id = p.makeIdent();
  EXPECT_TRUE(p.multiply(id, p.vZero()).isZeroTerminal());
  EXPECT_TRUE(p.multiply(p.mZero(), p.makeZeroState()).isZeroTerminal());
  EXPECT_TRUE(p.multiply(p.mZero(), id).isZeroTerminal());
}

TEST(DDOps, ConjugateTransposeMatchesDense) {
  Package p(3);
  std::mt19937_64 rng(109);
  std::normal_distribution<double> dist;
  std::vector<ComplexValue> m(64);
  for (auto& e : m) {
    e = {dist(rng), dist(rng)};
  }
  const MEdge dd = p.makeMatrixFromDense(m);
  const auto got = p.getMatrix(p.conjugateTranspose(dd));
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(got[r * 8 + c].r, m[c * 8 + r].r, 1e-10);
      EXPECT_NEAR(got[r * 8 + c].i, -m[c * 8 + r].i, 1e-10);
    }
  }
}

TEST(DDOps, ConjugateTransposeOfUnitaryIsInverse) {
  Package p(3);
  const MEdge cx = p.makeGateDD(ir::gateMatrix(ir::GateType::X), 2, {Control{0}});
  const MEdge h = p.makeGateDD(ir::gateMatrix(ir::GateType::H), 1);
  const MEdge u = p.multiply(cx, h);
  const MEdge prod = p.multiply(p.conjugateTranspose(u), u);
  EXPECT_EQ(prod.p, p.makeIdent().p);
  EXPECT_NEAR(prod.w->r, 1.0, 1e-9);
  EXPECT_NEAR(prod.w->i, 0.0, 1e-9);
}

TEST(DDOps, InnerProductMatchesDense) {
  Package p(5);
  std::mt19937_64 rng(110);
  const auto a = test::randomAmplitudes(5, rng);
  const auto b = test::randomAmplitudes(5, rng);
  const VEdge va = p.makeStateFromVector(a);
  const VEdge vb = p.makeStateFromVector(b);
  std::complex<double> expected{};
  for (std::size_t i = 0; i < a.size(); ++i) {
    expected += std::conj(a[i].toStd()) * b[i].toStd();
  }
  const ComplexValue got = p.innerProduct(va, vb);
  EXPECT_NEAR(got.r, expected.real(), 1e-9);
  EXPECT_NEAR(got.i, expected.imag(), 1e-9);
  EXPECT_NEAR(p.norm2(va), 1.0, 1e-9);
  EXPECT_NEAR(p.fidelity(va, va), 1.0, 1e-9);
}

TEST(DDOps, UnitaryPreservesNorm) {
  Package p(6);
  std::mt19937_64 rng(111);
  VEdge v = p.makeStateFromVector(test::randomAmplitudes(6, rng));
  for (int i = 0; i < 20; ++i) {
    const auto t = static_cast<Qubit>(rng() % 6);
    const MEdge g = p.makeGateDD(ir::gateMatrix(ir::GateType::H), t);
    v = p.multiply(g, v);
  }
  EXPECT_NEAR(p.norm2(v), 1.0, 1e-8);
}

// -------------------------------------------------------------------- trace

Cx denseTrace(const DenseMatrix& m) {
  Cx sum{};
  for (std::size_t i = 0; i < m.dim(); ++i) {
    sum += m.at(i, i);
  }
  return sum;
}

TEST(DDOps, TraceMatchesDenseOnRandomCircuits) {
  // Random gate products over 4 qubits, built gate by gate as a DD and as a
  // dense matrix; about half the gates carry a control.
  const std::vector<ir::GateType> kinds{ir::GateType::H, ir::GateType::T,
                                        ir::GateType::SX, ir::GateType::Y,
                                        ir::GateType::S};
  for (const std::uint64_t seed : {112ULL, 113ULL, 114ULL}) {
    Package p(4);
    std::mt19937_64 rng(seed);
    MEdge u = p.makeIdent();
    DenseMatrix expected = DenseMatrix::identity(16);
    for (int i = 0; i < 12; ++i) {
      const GateMatrix g = ir::gateMatrix(kinds[rng() % kinds.size()]);
      const auto t = static_cast<Qubit>(rng() % 4);
      Controls controls;
      if (rng() % 2 == 0) {
        controls.push_back(Control{static_cast<Qubit>((t + 1 + rng() % 3) % 4)});
      }
      u = p.multiply(p.makeGateDD(g, t, controls), u);
      expected = baseline::expandGate(g, 4, t, controls) * expected;
    }
    const ComplexValue got = p.trace(u);
    const Cx want = denseTrace(expected);
    EXPECT_NEAR(got.r, want.real(), 1e-9) << "seed " << seed;
    EXPECT_NEAR(got.i, want.imag(), 1e-9) << "seed " << seed;
  }
}

TEST(DDOps, TraceOfIdentityChainsAndZero) {
  Package p(5);
  // makeIdent(k - 1) is the identity on the k lowest qubits: Tr = 2^k.
  for (Qubit k = 1; k <= 5; ++k) {
    const ComplexValue tr = p.trace(p.makeIdent(k - 1));
    EXPECT_EQ(tr.r, std::ldexp(1.0, k));
    EXPECT_EQ(tr.i, 0.0);
  }
  // A gate on the top qubit reaches the identity chain below it:
  // Tr(T (x) I_16) = 16 (1 + e^{i pi/4}).
  const GateMatrix t = ir::gateMatrix(ir::GateType::T);
  const Cx want = denseTrace(baseline::expandGate(t, 5, 4));
  const ComplexValue got = p.trace(p.makeGateDD(t, 4));
  EXPECT_NEAR(got.r, want.real(), 1e-12);
  EXPECT_NEAR(got.i, want.imag(), 1e-12);
  const ComplexValue zero = p.trace(p.mZero());
  EXPECT_EQ(zero.r, 0.0);
  EXPECT_EQ(zero.i, 0.0);
}

}  // namespace
}  // namespace ddsim::dd
