// Static plan verification: machine-checked proofs of the paper's
// correctness lemmas over compiled schedules, without executing any user op.
//
// PR 3's differential fuzzer certifies plans *dynamically* — it runs them
// and compares values against the sequential loop.  This pass certifies a
// compiled ExecutionPlan (core/plan.hpp) *statically*, from the uint32
// schedule tables and the original f/g/h maps alone, the way a graph
// validator gates a compiled graph before launch.  Three invariant families:
//
//  1. PRAM hazard analysis — each executor phase is checked against its own
//     synchronization discipline.  Double-buffered pointer-jumping rounds
//     need exclusive writes per round (CREW: concurrent reads are fine,
//     two moves writing one destination are not), which is
//     what turns the "reads of a round all precede its writes" comment in
//     plan.hpp into a proved property.  Unbuffered parallel steps (blocked
//     phase 2, blocked phase-1 block sweeps) additionally need reads
//     disjoint from same-step writes and the complete-before-read block
//     ordering of the paper's two-level algorithm.
//
//  2. Symbolic replay — the plan is interpreted over a free-monoid term
//     algebra (each initial cell an opaque symbol, ⊙ = concatenation) and
//     the resulting per-cell terms are compared byte-for-byte against the
//     terms of the sequential loop (Lemma 1 traces).  This certifies
//     non-commutative order preservation: a swapped operand pair that a
//     commutative differential run silently forgives is a hard mismatch
//     here.  The GIR route, whose contract is a commutative op with atomic
//     powers, is replayed over the free *commutative* monoid instead
//     (cell -> BigUint exponent maps, the paper's CAP counts).
//
//  3. Precondition lint — the plan's fingerprint versus the system's, g
//     injectivity and h = g where an ordinary engine was selected, no
//     dependence where the elementwise engine was, schedule-table bounds
//     versus the system's m and n, and seed-table agreement with the
//     recomputed Lemma-1 predecessor forest.
//
// Violations carry (round, move, cell) coordinates into the offending
// schedule slot.  Reports render human-readable (summary()) and
// machine-readable (to_json(), schema in docs/static_analysis.md).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/ir_problem.hpp"
#include "core/plan.hpp"

namespace ir::verify {

/// Sentinel for "coordinate not applicable" in a Violation.
inline constexpr std::size_t kNoCoord = static_cast<std::size_t>(-1);

/// The three invariant families the verifier proves.
enum class CheckFamily { kHazard, kSymbolic, kPrecondition };

[[nodiscard]] std::string to_string(CheckFamily family);

/// One violated invariant, with coordinates into the schedule: `round` is
/// the pointer-jumping round or blocked phase-2 block index, `move` the slot
/// within that round's slice, `cell` the array cell (or per-iteration trace
/// slot) involved.  kNoCoord marks a coordinate that does not apply.
struct Violation {
  CheckFamily family = CheckFamily::kPrecondition;
  std::string code;     ///< stable machine identifier, e.g. "jump.write-write"
  std::string message;  ///< human diagnostic with coordinates spelled out
  std::size_t round = kNoCoord;
  std::size_t move = kNoCoord;
  std::size_t cell = kNoCoord;
};

struct VerifyOptions {
  bool check_preconditions = true;
  bool check_hazards = true;
  bool check_symbolic = true;

  /// Symbolic-replay cost guard: the sequential free-monoid terms total
  /// O(n * depth) symbols (quadratic on an unbroken chain), so systems whose
  /// estimated term volume exceeds this are reported as "symbolic skipped"
  /// instead of ground to a halt.  The hazard and precondition families are
  /// linear in the schedule and always run.
  std::size_t max_symbolic_terms = std::size_t{1} << 22;

  /// Stop collecting after this many violations (the report notes truncation).
  std::size_t max_violations = 64;
};

/// The verdict on one plan.  `checks_run` counts invariant groups evaluated;
/// `symbolic_skipped` is set when the term-volume guard fired (the plan can
/// still be certified hazard- and precondition-clean).
struct VerifyReport {
  std::string engine;  ///< to_string(plan.engine) of the verified plan
  std::size_t checks_run = 0;
  bool symbolic_skipped = false;
  std::string symbolic_skip_reason;
  bool truncated = false;  ///< hit VerifyOptions::max_violations
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;

  /// Machine-readable report (one JSON object; schema documented in
  /// docs/static_analysis.md).
  [[nodiscard]] std::string to_json() const;
};

/// Statically verify `plan` against the system it claims to have been
/// compiled from.  Never executes a user op and never throws on a *bad
/// plan* — every violated invariant becomes a Violation.  Throws
/// ContractViolation only if `sys` itself is invalid.
[[nodiscard]] VerifyReport verify_plan(const core::Plan& plan,
                                       const core::GeneralIrSystem& sys,
                                       const VerifyOptions& options = {});

/// Ordinary systems verify through their GIR embedding (h := g).
[[nodiscard]] VerifyReport verify_plan(const core::Plan& plan,
                                       const core::OrdinaryIrSystem& sys,
                                       const VerifyOptions& options = {});

}  // namespace ir::verify
