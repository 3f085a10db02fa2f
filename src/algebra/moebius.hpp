// Möbius (linear-fractional) maps and the paper's Lemma-2 composition ⊗.
//
// A map f(x) = (a·x + b) / (c·x + d) is represented by the 2x2 matrix
// [[a, b], [c, d]].  Lemma 2 ("Moebius Transformation"): composition of maps
// is matrix product — EXCEPT that a singular matrix (det = 0) denotes a
// constant map, and composing a constant map with anything on its input side
// leaves it constant.  Hence the modified product
//
//     A ⊗ B = A        if det(A) == 0
//             A · B    otherwise
//
// which remains associative (checked by property tests) and is exactly what
// lets initial-value "anchors" — constant maps [[0, s], [0, 1]] — ride
// through an Ordinary-IR run over matrices.
//
// This is the algebra behind the paper's Section-3 application: parallelizing
//     X[g(i)] := A[i]·X[f(i)] + B[i]
// and its self-referential generalization (e.g. Livermore loop 23).
#pragma once

#include <string>

#include "algebra/concepts.hpp"
#include "support/contract.hpp"

namespace ir::algebra {

/// A linear-fractional map x -> (a·x + b) / (c·x + d) over doubles.
struct MoebiusMap {
  double a = 1.0;
  double b = 0.0;
  double c = 0.0;
  double d = 1.0;

  /// The identity map x -> x.
  static MoebiusMap identity() { return MoebiusMap{1.0, 0.0, 0.0, 1.0}; }

  /// The constant map x -> value (singular by construction: det = 0).
  static MoebiusMap constant(double value) { return MoebiusMap{0.0, value, 0.0, 1.0}; }

  /// The affine map x -> slope·x + offset.
  static MoebiusMap affine(double slope, double offset) {
    return MoebiusMap{slope, offset, 0.0, 1.0};
  }

  /// Determinant a·d - b·c.
  [[nodiscard]] double det() const noexcept { return a * d - b * c; }

  /// True iff the map is constant (det == 0, compared exactly: constant and
  /// affine chains built by the library keep c == 0 so the determinant is
  /// the exact product of slopes and hits 0.0 only when a slope is 0).
  [[nodiscard]] bool is_constant() const noexcept { return det() == 0.0; }

  /// Evaluate the map at x.  Division by zero follows IEEE-754 (yields inf).
  [[nodiscard]] double apply(double x) const noexcept { return (a * x + b) / (c * x + d); }

  /// Plain matrix product (no singularity handling) — exposed for tests.
  [[nodiscard]] MoebiusMap matmul(const MoebiusMap& rhs) const noexcept {
    return MoebiusMap{a * rhs.a + b * rhs.c, a * rhs.b + b * rhs.d,
                      c * rhs.a + d * rhs.c, c * rhs.b + d * rhs.d};
  }

  /// Lemma 2's ⊗: `this ∘ rhs` as maps, with the singular short-circuit.
  [[nodiscard]] MoebiusMap compose(const MoebiusMap& rhs) const noexcept {
    if (is_constant()) return *this;
    return matmul(rhs);
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const MoebiusMap&, const MoebiusMap&) = default;
};

/// Operator instance for the IR solvers.  NOTE the argument order:
/// Ordinary-IR traces are written root-first (Lemma 1:
/// A[f(j_k)] ⊙ ... ⊙ A[g(i)]), while map composition applies the root FIRST;
/// combine(prefix, next) therefore composes as next ∘ prefix.  The operation
/// stays associative and non-commutative.
struct MoebiusCompose {
  using Value = MoebiusMap;
  static constexpr bool is_commutative = false;
  Value combine(const Value& prefix, const Value& next) const noexcept {
    return next.compose(prefix);
  }
};

static_assert(BinaryOperation<MoebiusCompose>);

/// The affine map x -> a·x + b: a MoebiusMap whose bottom row is [0, 1], in
/// 16 bytes instead of 32.  It is Heinsen's x_t = a_t·x_{t-1} + b_t
/// (arxiv 2311.06281) as pair composition.
struct AffineMap {
  double a = 1.0;
  double b = 0.0;

  /// The constant map x -> value (a = 0, the singular case).
  static AffineMap constant(double value) { return AffineMap{0.0, value}; }

  /// det = a for the matrix [[a, b], [0, 1]], compared exactly.
  [[nodiscard]] bool is_constant() const noexcept { return a == 0.0; }

  [[nodiscard]] double apply(double x) const noexcept { return a * x + b; }

  friend bool operator==(const AffineMap&, const AffineMap&) = default;
};

/// Lemma 2's ⊗ on affine maps, in MoebiusCompose's argument order:
/// combine(prefix, next) is next ∘ prefix, (a₂a₁, a₂b₁ + b₂), and a constant
/// next (a₂ = 0) short-circuits to itself.  Three flops where the 2×2
/// product takes twelve; on affine maps the two agree value for value.
struct AffineCompose {
  using Value = AffineMap;
  static constexpr bool is_commutative = false;
  Value combine(const Value& prefix, const Value& next) const noexcept {
    if (next.is_constant()) return next;
    return AffineMap{next.a * prefix.a, next.a * prefix.b + next.b};
  }
};

static_assert(BinaryOperation<AffineCompose>);

}  // namespace ir::algebra
