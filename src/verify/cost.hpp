// Static cost & conflict analysis over compiled schedule tables.
//
// The verifier (verify.hpp) proves a plan is *safe* (hazard-free, sound
// bounds); cost_plan() predicts what the same plan *costs*, from the uint32
// schedule tables alone — no values, no execution:
//
//   * work W        — total ⊙ applications across all phases,
//   * depth D       — the longest ⊙-dependence chain (parallel time with
//                     unbounded processors),
//   * steps         — synchronous machine steps, phase by phase, matching
//                     the pram::Machine step structure one-for-one,
//   * footprint     — peak distinct cells touched in any single step,
//   * bank conflicts — predicted memory stalls under a B-bank model.
//
// Bank model, precisely (docs/static_analysis.md#cost--conflict-analysis):
// shared memory is B interleaved banks; a cell with array-local index c
// lives in bank c mod B, and every array (initial cells, trace slots) is
// modeled as starting at bank 0.  Each synchronous step issues its reads in
// one memory cycle group and its writes in another (the executors
// double-buffer, so all reads of a step really do precede its writes).
// Duplicate reads of one cell coalesce to a single access in both modes —
// concurrent read is what the C in CREW/CRCW grants.  Duplicate writes
// coalesce only under kCrcw (combining write); under kCrew they are counted
// raw, though hazard-free plans never produce them.  A cycle group that
// lands k accesses on one bank needs k bank cycles (its occupancy); the
// step's predicted cost is the max occupancy per group, its *stall* count is
// that cost minus the balanced ideal ceil(accesses / B).  Sequential phases
// (the scan fold) issue one access per cycle by construction: their cycle
// count is the access count and their stalls are zero.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/plan.hpp"

namespace ir::verify {

/// Concurrent-access semantics for the bank model's write cycle group.
enum class BankMode { kCrew, kCrcw };

[[nodiscard]] const char* to_string(BankMode mode);

struct CostOptions {
  std::size_t banks = 8;             ///< B >= 1
  BankMode mode = BankMode::kCrew;
};

/// One schedule phase (seed, each jumping round, blocked sweep, ...).
struct PhaseCost {
  std::string name;
  std::size_t steps = 0;        ///< synchronous machine steps
  std::size_t ops = 0;          ///< ⊙ applications (op.pow counts one)
  std::size_t reads = 0;        ///< shared reads after coalescing
  std::size_t writes = 0;       ///< shared writes (coalesced under kCrcw)
  std::size_t footprint = 0;    ///< peak distinct cells touched in one step
  std::size_t peak_bank_occupancy = 0;  ///< max accesses on one bank, one cycle group
  std::size_t bank_cycles = 0;  ///< Σ per-group max occupancy (memory time)
  std::size_t stalls = 0;       ///< bank_cycles minus the balanced ideal
  bool sequential = false;      ///< single processor; conflicts do not apply
};

struct CostReport {
  std::string engine;
  std::size_t banks = 1;
  BankMode mode = BankMode::kCrew;

  std::size_t work = 0;            ///< Σ phase ops
  std::size_t depth = 0;           ///< longest ⊙ chain
  std::size_t steps = 0;           ///< Σ phase steps (== pram::Machine steps
                                   ///  for jumping plans without early exit)
  std::size_t rounds = 0;          ///< parallel concatenation rounds (jumping:
                                   ///  JumpSchedule::rounds(); blocked:
                                   ///  resolve rounds; 0 otherwise)
  std::size_t peak_footprint = 0;  ///< max phase footprint
  std::size_t peak_bank_occupancy = 0;
  std::size_t bank_cycles = 0;     ///< Σ phase bank cycles
  std::size_t stalls = 0;          ///< Σ phase stalls

  std::vector<PhaseCost> phases;

  /// One line: "jumping: W=31 D=5 steps=6 rounds=4 footprint=12
  /// banks=8/crew occupancy=4 cycles=18 stalls=2".
  [[nodiscard]] std::string summary() const;

  /// JSON object mirroring every field, phases included.
  [[nodiscard]] std::string to_json() const;
};

/// Statically cost `plan` under `options`.  Pure table walk — never touches
/// values, never runs the schedule.  Throws support::ContractViolation on
/// options.banks == 0.  Accepts every engine compile_plan produces.
[[nodiscard]] CostReport cost_plan(const core::Plan& plan,
                                   const CostOptions& options = {});

}  // namespace ir::verify
