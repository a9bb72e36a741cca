/// \file complex_value.hpp
/// \brief Plain complex value type used for all DD edge-weight arithmetic.
///
/// Edge weights in the DD package are pointers to canonical ComplexValue
/// entries owned by a ComplexTable (see complex_table.hpp). Arithmetic is
/// performed on plain values and the results are re-canonicalized, so this
/// type stays a trivially copyable aggregate.

#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <string>

namespace ddsim::dd {

/// Default tolerance for treating two floating-point values as equal.
/// Deliberately close to machine precision: canonicalization *snaps* every
/// computed weight to its table entry, so the tolerance is also the rounding
/// error re-injected into subsequent arithmetic on every operation. A loose
/// tolerance (e.g. 1e-10) destroys the relative precision of small
/// amplitudes, de-synchronizes structurally shared subtrees over long gate
/// sequences and blows the DD up (observed on deep Grover runs; cf. the
/// accuracy/compactness trade-off analysis of [21]).
inline constexpr double kTolerance = 1e-13;

/// A complex number as a plain aggregate (real and imaginary part).
struct ComplexValue {
  double r = 0.0;
  double i = 0.0;

  [[nodiscard]] constexpr bool exactlyZero() const noexcept {
    return r == 0.0 && i == 0.0;
  }
  [[nodiscard]] constexpr bool exactlyOne() const noexcept {
    return r == 1.0 && i == 0.0;
  }

  [[nodiscard]] bool approximatelyZero(double tol = kTolerance) const noexcept {
    return std::abs(r) <= tol && std::abs(i) <= tol;
  }
  [[nodiscard]] bool approximatelyOne(double tol = kTolerance) const noexcept {
    return std::abs(r - 1.0) <= tol && std::abs(i) <= tol;
  }
  [[nodiscard]] bool approximatelyEquals(const ComplexValue& other,
                                         double tol = kTolerance) const noexcept {
    return std::abs(r - other.r) <= tol && std::abs(i - other.i) <= tol;
  }

  /// Squared magnitude |z|^2.
  [[nodiscard]] constexpr double mag2() const noexcept { return r * r + i * i; }
  /// Magnitude |z|.
  [[nodiscard]] double mag() const noexcept { return std::hypot(r, i); }

  [[nodiscard]] constexpr ComplexValue conj() const noexcept { return {r, -i}; }

  [[nodiscard]] std::complex<double> toStd() const noexcept { return {r, i}; }
  static ComplexValue fromStd(std::complex<double> z) noexcept {
    return {z.real(), z.imag()};
  }

  /// Human-readable form such as "0.5-0.5i" (used in examples and tests).
  [[nodiscard]] std::string toString(int precision = 6) const;

  constexpr bool operator==(const ComplexValue&) const noexcept = default;
};

[[nodiscard]] constexpr ComplexValue operator+(ComplexValue a, ComplexValue b) noexcept {
  return {a.r + b.r, a.i + b.i};
}
[[nodiscard]] constexpr ComplexValue operator-(ComplexValue a, ComplexValue b) noexcept {
  return {a.r - b.r, a.i - b.i};
}
[[nodiscard]] constexpr ComplexValue operator*(ComplexValue a, ComplexValue b) noexcept {
  return {a.r * b.r - a.i * b.i, a.r * b.i + a.i * b.r};
}
[[nodiscard]] constexpr ComplexValue operator*(ComplexValue a, double s) noexcept {
  return {a.r * s, a.i * s};
}
[[nodiscard]] ComplexValue operator/(ComplexValue a, ComplexValue b) noexcept;

inline ComplexValue& operator+=(ComplexValue& a, ComplexValue b) noexcept {
  a = a + b;
  return a;
}
inline ComplexValue& operator*=(ComplexValue& a, ComplexValue b) noexcept {
  a = a * b;
  return a;
}

}  // namespace ddsim::dd
