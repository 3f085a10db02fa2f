// Randomized IR-system generators for the differential fuzzing harness.
//
// Each ShapeClass targets a distinct solver route or schedule edge:
//   * kBoundary          — n ∈ {0, 1, 2}, the off-by-one sizes every engine
//                          must survive (empty schedules, single rounds);
//   * kChain             — local chains with random breaks, the blocked
//                          solver's best case and phase-2 fix-up exercise;
//   * kLinearChain       — one unbroken A[i+1] := A[i] ⊙ A[i+1] chain, the
//                          Möbius/linear-recurrence shape (max round count);
//   * kStar              — hub topologies: fan-out (every equation reads one
//                          hub, ordinary) or fan-in (every equation writes
//                          one hub — repeated writes, the GIR route);
//   * kPermutation       — g a random permutation of all cells (n == m),
//                          scattered deep chains for pointer jumping;
//   * kOrdinaryScattered — random injective g with tunable read rewiring,
//                          the generic ordinary workload;
//   * kDependenceFree    — reads only untouched cells, the elementwise route;
//   * kGeneralRandom     — unconstrained f, g, h with repeated writes, the
//                          CAP route.
//
// Systems are valid by construction (the harness re-checks with validate()),
// and generation is deterministic in the SplitMix64 state so any case is
// reproducible from a printed seed.
#pragma once

#include <array>
#include <string>
#include <string_view>

#include "core/ir_problem.hpp"
#include "support/rng.hpp"

namespace ir::testing {

enum class ShapeClass {
  kBoundary = 0,
  kChain,
  kLinearChain,
  kStar,
  kPermutation,
  kOrdinaryScattered,
  kDependenceFree,
  kGeneralRandom,
};

inline constexpr std::array<ShapeClass, 8> kAllShapeClasses = {
    ShapeClass::kBoundary,          ShapeClass::kChain,
    ShapeClass::kLinearChain,       ShapeClass::kStar,
    ShapeClass::kPermutation,       ShapeClass::kOrdinaryScattered,
    ShapeClass::kDependenceFree,    ShapeClass::kGeneralRandom,
};

[[nodiscard]] std::string_view to_string(ShapeClass shape);

struct GeneratorLimits {
  std::size_t max_iterations = 64;  ///< upper bound on n (≥ 1)
  std::size_t max_cells = 160;      ///< upper bound on m
};

struct GeneratedCase {
  ShapeClass shape = ShapeClass::kGeneralRandom;
  core::GeneralIrSystem sys;
};

/// Generate one system of the given shape class.
[[nodiscard]] GeneratedCase generate_case(ShapeClass shape, support::SplitMix64& rng,
                                          const GeneratorLimits& limits = {});

/// Generate one system of a uniformly random shape class.
[[nodiscard]] GeneratedCase generate_case(support::SplitMix64& rng,
                                          const GeneratorLimits& limits = {});

/// True iff h == g and g is injective — the shape the ordinary engines accept.
[[nodiscard]] bool is_ordinary_shape(const core::GeneralIrSystem& sys);

/// The ordinary view of an ordinary-shaped system (throws on other shapes).
[[nodiscard]] core::OrdinaryIrSystem to_ordinary(const core::GeneralIrSystem& sys);

/// Apply one random structure-agnostic mutation to a serialized document:
/// truncation, byte corruption, line duplication (duplicate headers), line
/// deletion, garbage insertion, or an overflow-sized count; or one at the
/// edges of the readers' one-pass line scan: a number widened to 20 digits
/// or to 2^64, a '\r' before a '\n', a tab for a space, a mid-line '#'
/// comment, a dropped final newline, or a sign before a number.  Parsers
/// must either accept the result or throw ContractViolation with a line
/// number — any other escape (crash, bad_alloc, std::exception) is a bug.
[[nodiscard]] std::string mutate_document(const std::string& text,
                                          support::SplitMix64& rng);

}  // namespace ir::testing
