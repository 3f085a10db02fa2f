#include "verify/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/serialize.hpp"
#include "obs/metrics_export.hpp"
#include "support/bigint.hpp"

namespace ir::verify {

std::string to_string(CheckFamily family) {
  switch (family) {
    case CheckFamily::kHazard: return "hazard";
    case CheckFamily::kSymbolic: return "symbolic";
    case CheckFamily::kPrecondition: return "precondition";
  }
  return "?";
}

namespace {

using core::GeneralIrSystem;
using core::kNoIndex32;
using core::kNone;
using core::Plan;
using core::PlanEngine;
using core::PlanTable;

std::string coord_suffix(std::size_t round, std::size_t move, std::size_t cell) {
  std::string out;
  if (round != kNoCoord) out += " round=" + std::to_string(round);
  if (move != kNoCoord) out += " move=" + std::to_string(move);
  if (cell != kNoCoord) out += " cell=" + std::to_string(cell);
  return out;
}

/// Collects violations, enforcing the max_violations cap.
class Reporter {
 public:
  Reporter(VerifyReport& report, const VerifyOptions& options)
      : report_(report), options_(options) {}

  void add(CheckFamily family, std::string code, std::string message,
           std::size_t round = kNoCoord, std::size_t move = kNoCoord,
           std::size_t cell = kNoCoord) {
    if (report_.violations.size() >= options_.max_violations) {
      report_.truncated = true;
      return;
    }
    message += coord_suffix(round, move, cell);
    report_.violations.push_back(
        Violation{family, std::move(code), std::move(message), round, move, cell});
  }

  [[nodiscard]] bool saturated() const {
    return report_.violations.size() >= options_.max_violations;
  }

 private:
  VerifyReport& report_;
  const VerifyOptions& options_;
};

bool is_ordinary_engine(PlanEngine engine) {
  return engine == PlanEngine::kJumping || engine == PlanEngine::kBlocked ||
         engine == PlanEngine::kScan;
}

// ---------------------------------------------------------------------------
// Shape & bounds gate.  These run unconditionally: every later pass indexes
// through the schedule tables, so a plan that fails here is rejected without
// giving the hazard/symbolic passes a chance to walk out of bounds.
// ---------------------------------------------------------------------------

bool check_offsets(Reporter& rep, const char* code, const PlanTable<std::size_t>& begin,
                   std::size_t expected_entries, std::size_t total) {
  bool ok = true;
  if (begin.size() != expected_entries + 1 || begin.empty() || begin.front() != 0) {
    rep.add(CheckFamily::kPrecondition, std::string(code) + "-shape",
            "offset table must hold " + std::to_string(expected_entries + 1) +
                " entries starting at 0, has " + std::to_string(begin.size()));
    return false;
  }
  for (std::size_t r = 0; r + 1 < begin.size(); ++r) {
    if (begin[r] > begin[r + 1]) {
      rep.add(CheckFamily::kPrecondition, std::string(code) + "-monotone",
              "offset table decreases between rounds " + std::to_string(r) + " and " +
                  std::to_string(r + 1));
      ok = false;
    }
  }
  if (begin.back() != total) {
    rep.add(CheckFamily::kPrecondition, std::string(code) + "-total",
            "offset table ends at " + std::to_string(begin.back()) + ", table holds " +
                std::to_string(total) + " entries");
    ok = false;
  }
  return ok;
}

bool check_indices(Reporter& rep, const char* code, const PlanTable<std::uint32_t>& table,
                   std::size_t limit, bool allow_sentinel) {
  for (std::size_t k = 0; k < table.size(); ++k) {
    if (allow_sentinel && table[k] == kNoIndex32) continue;
    if (table[k] >= limit) {
      rep.add(CheckFamily::kPrecondition, code,
              "schedule index " + std::to_string(table[k]) + " out of range [0, " +
                  std::to_string(limit) + ")",
              kNoCoord, k, table[k]);
      return false;
    }
  }
  return true;
}

bool check_bounds(Reporter& rep, const Plan& plan, const GeneralIrSystem& sys) {
  bool ok = true;
  if (plan.cells != sys.cells || plan.iterations != sys.iterations()) {
    rep.add(CheckFamily::kPrecondition, "plan.dims-mismatch",
            "plan claims " + std::to_string(plan.cells) + " cells / " +
                std::to_string(plan.iterations) + " iterations, system has " +
                std::to_string(sys.cells) + " / " + std::to_string(sys.iterations()));
    return false;
  }
  const std::size_t n = plan.iterations;
  const std::size_t m = plan.cells;

  if (is_ordinary_engine(plan.engine)) {
    if (plan.write_cell.size() != n || plan.root_cell.size() != n) {
      rep.add(CheckFamily::kPrecondition, "seed.table-size",
              "seed tables must hold one entry per iteration");
      return false;
    }
    ok &= check_indices(rep, "seed.write-cell-bounds", plan.write_cell, m, false);
    ok &= check_indices(rep, "seed.root-cell-bounds", plan.root_cell, m, true);
  }

  switch (plan.engine) {
    case PlanEngine::kJumping: {
      const core::JumpSchedule& js = plan.jump;
      if (js.dst.size() != js.src.size()) {
        rep.add(CheckFamily::kPrecondition, "jump.table-size",
                "dst and src tables must pair up (" + std::to_string(js.dst.size()) +
                    " vs " + std::to_string(js.src.size()) + ")");
        return false;
      }
      ok &= check_offsets(rep, "jump.rounds", js.round_begin, js.rounds(), js.moves());
      ok &= check_indices(rep, "jump.dst-bounds", js.dst, n, false);
      ok &= check_indices(rep, "jump.src-bounds", js.src, n, false);
      break;
    }
    case PlanEngine::kBlocked: {
      const core::BlockedSchedule& bs = plan.blocked;
      std::size_t covered = 0;
      for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
        if (bs.blocks[b].begin != covered || bs.blocks[b].end < bs.blocks[b].begin) {
          rep.add(CheckFamily::kPrecondition, "blocked.partition",
                  "blocks must partition [0, n) contiguously", b);
          return false;
        }
        covered = bs.blocks[b].end;
      }
      if (covered != n) {
        rep.add(CheckFamily::kPrecondition, "blocked.partition",
                "blocks cover [0, " + std::to_string(covered) + "), system has n=" +
                    std::to_string(n));
        return false;
      }
      if (bs.local_pred.size() != n || bs.fix_dst.size() != bs.fix_src.size()) {
        rep.add(CheckFamily::kPrecondition, "blocked.table-size",
                "local_pred needs n entries and fix tables must pair up");
        return false;
      }
      ok &= check_offsets(rep, "blocked.fixups", bs.fix_begin, bs.blocks.size(),
                          bs.partials());
      ok &= check_indices(rep, "blocked.local-pred-bounds", bs.local_pred, n, true);
      ok &= check_indices(rep, "blocked.fix-dst-bounds", bs.fix_dst, n, false);
      ok &= check_indices(rep, "blocked.fix-src-bounds", bs.fix_src, n, false);
      break;
    }
    case PlanEngine::kScan: {
      const core::ScanSchedule& ss = plan.scan;
      if (ss.head.size() != n) {
        rep.add(CheckFamily::kPrecondition, "scan.table-size",
                "head-flag table must hold one entry per iteration, has " +
                    std::to_string(ss.head.size()));
        return false;
      }
      std::size_t heads = 0;
      for (std::size_t i = 0; i < n; ++i) heads += ss.head[i] != 0 ? 1 : 0;
      if (ss.segments != heads) {
        rep.add(CheckFamily::kPrecondition, "scan.segment-count",
                "schedule claims " + std::to_string(ss.segments) + " segments, head "
                    "flags mark " + std::to_string(heads));
        ok = false;
      }
      if (n > 0 && (ss.longest == 0 || ss.longest > n)) {
        rep.add(CheckFamily::kPrecondition, "scan.longest-range",
                "longest-segment gauge " + std::to_string(ss.longest) +
                    " outside [1, " + std::to_string(n) + "]");
        ok = false;
      }
      break;
    }
    case PlanEngine::kElementwise: {
      const core::ElementwiseSchedule& es = plan.elementwise;
      if (es.cell.size() != es.f.size() || es.cell.size() != es.h.size()) {
        rep.add(CheckFamily::kPrecondition, "elementwise.table-size",
                "cell/f/h tables must have one entry per written cell");
        return false;
      }
      ok &= check_indices(rep, "elementwise.cell-bounds", es.cell, m, false);
      ok &= check_indices(rep, "elementwise.f-bounds", es.f, m, false);
      ok &= check_indices(rep, "elementwise.h-bounds", es.h, m, false);
      break;
    }
    case PlanEngine::kGeneralCap: {
      const core::GirSchedule& gs = plan.gir;
      if (gs.term_exp.size() != gs.term_cell.size()) {
        rep.add(CheckFamily::kPrecondition, "gir.table-size",
                "term_cell and term_exp tables must pair up");
        return false;
      }
      ok &= check_offsets(rep, "gir.terms", gs.term_begin, gs.cell.size(),
                          gs.term_cell.size());
      ok &= check_indices(rep, "gir.cell-bounds", gs.cell, m, false);
      ok &= check_indices(rep, "gir.term-cell-bounds", gs.term_cell, m, false);
      for (std::size_t t = 0; t < gs.term_exp.size(); ++t) {
        if (gs.term_exp[t].is_zero()) {
          rep.add(CheckFamily::kPrecondition, "gir.zero-exponent",
                  "a leaf power of zero cannot appear in a trace", kNoCoord, t);
          ok = false;
        }
      }
      break;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Precondition lint.
// ---------------------------------------------------------------------------

void check_preconditions(Reporter& rep, const Plan& plan, const GeneralIrSystem& sys) {
  if (plan.fingerprint != core::content_fingerprint(sys)) {
    rep.add(CheckFamily::kPrecondition, "plan.fingerprint-mismatch",
            "plan fingerprint does not match the system's content hash — the "
            "plan was compiled from a different system");
  }

  if (plan.engine == PlanEngine::kElementwise) {
    // One forest pass: count the reads, through f or h, of a cell an
    // earlier iteration wrote.
    std::vector<bool> written(sys.cells, false);
    std::size_t dependences = 0;
    for (std::size_t i = 0; i < sys.iterations(); ++i) {
      dependences += (written[sys.f[i]] ? 1 : 0) + (written[sys.h[i]] ? 1 : 0);
      written[sys.g[i]] = true;
    }
    if (dependences != 0) {
      rep.add(CheckFamily::kPrecondition, "elementwise.has-dependences",
              "the elementwise route requires a recurrence-free system, the system has " +
                  std::to_string(dependences) + " dependences");
    }
  }

  if (is_ordinary_engine(plan.engine)) {
    if (sys.h != sys.g) {
      std::size_t i = 0;
      while (i < sys.iterations() && sys.h[i] == sys.g[i]) ++i;
      rep.add(CheckFamily::kPrecondition, "ordinary.h-ne-g",
              "ordinary engines require h = g; equation " + std::to_string(i) +
                  " has h=" + std::to_string(sys.h[i]) + ", g=" + std::to_string(sys.g[i]),
              kNoCoord, i);
    }
    std::vector<std::size_t> writer(sys.cells, kNone);
    for (std::size_t i = 0; i < sys.iterations(); ++i) {
      if (writer[sys.g[i]] != kNone) {
        rep.add(CheckFamily::kPrecondition, "ordinary.g-not-injective",
                "ordinary engines require injective g; iterations " +
                    std::to_string(writer[sys.g[i]]) + " and " + std::to_string(i) +
                    " both write cell " + std::to_string(sys.g[i]),
                kNoCoord, i, sys.g[i]);
        break;
      }
      writer[sys.g[i]] = i;
    }

    // Seed tables versus the recomputed Lemma-1 predecessor forest.
    const std::vector<std::size_t> pred =
        core::last_writer_before(sys.g, sys.f, sys.cells);
    for (std::size_t i = 0; i < plan.iterations && !rep.saturated(); ++i) {
      if (plan.write_cell[i] != static_cast<std::uint32_t>(sys.g[i])) {
        rep.add(CheckFamily::kPrecondition, "seed.write-cell-mismatch",
                "write_cell[" + std::to_string(i) + "]=" +
                    std::to_string(plan.write_cell[i]) + " but g(i)=" +
                    std::to_string(sys.g[i]),
                kNoCoord, i, sys.g[i]);
      }
      const std::uint32_t want_root =
          pred[i] == kNone ? static_cast<std::uint32_t>(sys.f[i]) : kNoIndex32;
      if (plan.root_cell[i] != want_root) {
        rep.add(CheckFamily::kPrecondition, "seed.root-cell-mismatch",
                "root_cell[" + std::to_string(i) + "] disagrees with the recomputed "
                "predecessor forest (chain roots fold A[f(i)], others must not)",
                kNoCoord, i);
      }
    }

    if (plan.engine == PlanEngine::kScan) {
      const core::ScanSchedule& ss = plan.scan;
      for (std::size_t i = 0; i < plan.iterations && !rep.saturated(); ++i) {
        if ((ss.head[i] != 0) != (pred[i] == kNone)) {
          rep.add(CheckFamily::kPrecondition, "scan.head-mismatch",
                  "head flag of iteration " + std::to_string(i) +
                      " disagrees with the recomputed predecessor forest (heads are "
                      "exactly the chain roots)",
                  kNoCoord, i);
        } else if (ss.head[i] == 0 && pred[i] != i - 1) {
          rep.add(CheckFamily::kPrecondition, "scan.not-chain",
                  "iteration " + std::to_string(i) + " depends on iteration " +
                      std::to_string(pred[i]) +
                      ", not its left neighbour — the sequential scan sweep would "
                      "fold the wrong value",
                  kNoCoord, i, pred[i]);
        }
      }
    }

    if (plan.engine == PlanEngine::kBlocked) {
      const core::BlockedSchedule& bs = plan.blocked;
      for (std::size_t i = 0; i < plan.iterations && !rep.saturated(); ++i) {
        if (bs.local_pred[i] != kNoIndex32 && plan.root_cell[i] != kNoIndex32) {
          rep.add(CheckFamily::kPrecondition, "blocked.root-and-local-pred",
                  "iteration records both a root seed and an in-block predecessor; "
                  "the executor would silently ignore the predecessor",
                  kNoCoord, i);
        }
        if (bs.local_pred[i] != kNoIndex32 && bs.local_pred[i] != pred[i]) {
          rep.add(CheckFamily::kPrecondition, "blocked.local-pred-mismatch",
                  "local_pred[" + std::to_string(i) + "]=" +
                      std::to_string(bs.local_pred[i]) +
                      " disagrees with the recomputed predecessor " +
                      (pred[i] == kNone ? std::string("(none)") : std::to_string(pred[i])),
                  kNoCoord, i);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PRAM hazard analysis.
// ---------------------------------------------------------------------------

/// Double-buffered jumping rounds: reads always precede writes, so
/// the only hazard is two moves of one round writing the same trace slot —
/// the write phase would race (and be order-dependent even run serially).
void check_jump_hazards(Reporter& rep, const Plan& plan) {
  const core::JumpSchedule& js = plan.jump;
  std::vector<std::size_t> written_round(plan.iterations, kNoCoord);
  std::vector<std::size_t> written_move(plan.iterations, kNoCoord);
  for (std::size_t r = 0; r < js.rounds() && !rep.saturated(); ++r) {
    const auto [begin, end] = js.round_span(r);
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t dst = js.dst[k];
      if (written_round[dst] == r) {
        rep.add(CheckFamily::kHazard, "jump.write-write",
                "moves " + std::to_string(written_move[dst]) + " and " +
                    std::to_string(k - begin) + " of round " + std::to_string(r) +
                    " both write trace slot " + std::to_string(dst) +
                    " — concurrent-write conflict in a CREW round",
                r, k - begin, dst);
      }
      written_round[dst] = r;
      written_move[dst] = k - begin;
      if (js.src[k] == dst) {
        rep.add(CheckFamily::kHazard, "jump.self-edge",
                "move folds trace slot " + std::to_string(dst) +
                    " into itself — the predecessor forest must be acyclic",
                r, k - begin, dst);
      }
    }
  }
}

/// Blocked two-level schedule.  Phase 1 runs one sequential sweep per block
/// concurrently: every read must stay inside the sweeping block and behind
/// the sweep cursor.  Phase 2 resolves blocks in ascending order, parallel
/// within a block and unbuffered: writes must be exclusive, reads must be
/// disjoint from same-step writes, and every source must come from a
/// strictly earlier (therefore complete) block.
void check_blocked_hazards(Reporter& rep, const Plan& plan) {
  const core::BlockedSchedule& bs = plan.blocked;

  for (std::size_t b = 0; b < bs.blocks.size() && !rep.saturated(); ++b) {
    const auto& block = bs.blocks[b];
    for (std::size_t i = block.begin; i < block.end; ++i) {
      const std::uint32_t p = bs.local_pred[i];
      if (p == kNoIndex32) continue;
      if (p < block.begin || p >= block.end) {
        rep.add(CheckFamily::kHazard, "blocked.phase1-cross-block-read",
                "iteration " + std::to_string(i) + " reads slot " + std::to_string(p) +
                    " owned by another block — races with that block's sweep",
                b, i, p);
      } else if (p >= i) {
        rep.add(CheckFamily::kHazard, "blocked.phase1-forward-read",
                "iteration " + std::to_string(i) + " reads slot " + std::to_string(p) +
                    " before the sweep has produced it",
                b, i, p);
      }
    }
  }

  std::vector<std::size_t> written_block(plan.iterations, kNoCoord);
  std::vector<std::size_t> written_move(plan.iterations, kNoCoord);
  for (std::size_t b = 0; b < bs.blocks.size() && !rep.saturated(); ++b) {
    const auto [begin, end] = bs.fix_span(b);
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t dst = bs.fix_dst[k];
      if (written_block[dst] == b) {
        rep.add(CheckFamily::kHazard, "blocked.fixup-write-write",
                "fix-ups " + std::to_string(written_move[dst]) + " and " +
                    std::to_string(k - begin) + " of block " + std::to_string(b) +
                    " both write slot " + std::to_string(dst),
                b, k - begin, dst);
      }
      written_block[dst] = b;
      written_move[dst] = k - begin;
      if (dst < bs.blocks[b].begin || dst >= bs.blocks[b].end) {
        rep.add(CheckFamily::kHazard, "blocked.fixup-dst-outside-block",
                "block " + std::to_string(b) + " fixes up slot " + std::to_string(dst) +
                    " it does not own — breaks the ascending-block completion order",
                b, k - begin, dst);
      }
    }
    // Read side, after the slice's write set is known.
    for (std::size_t k = begin; k < end && !rep.saturated(); ++k) {
      const std::uint32_t src = bs.fix_src[k];
      if (src < bs.blocks[b].begin) continue;  // strictly earlier block: complete
      if (written_block[src] == b) {
        rep.add(CheckFamily::kHazard, "blocked.fixup-read-of-written",
                "fix-up reads slot " + std::to_string(src) +
                    " while fix-up " + std::to_string(written_move[src]) +
                    " writes it in the same unbuffered parallel step",
                b, k - begin, src);
      } else {
        rep.add(CheckFamily::kHazard, "blocked.fixup-src-not-prior",
                "fix-up reads slot " + std::to_string(src) +
                    " from block " + std::to_string(b) +
                    " or later — only strictly earlier blocks are complete",
                b, k - begin, src);
      }
    }
  }
}

/// One unbuffered parallel step over a frozen input snapshot: writes must be
/// exclusive (reads can never conflict — they target the snapshot).
void check_scatter_hazards(Reporter& rep, const char* code,
                           const PlanTable<std::uint32_t>& cell, std::size_t cells) {
  std::vector<std::size_t> writer(cells, kNoCoord);
  for (std::size_t k = 0; k < cell.size() && !rep.saturated(); ++k) {
    if (writer[cell[k]] != kNoCoord) {
      rep.add(CheckFamily::kHazard, code,
              "entries " + std::to_string(writer[cell[k]]) + " and " + std::to_string(k) +
                  " both write cell " + std::to_string(cell[k]) +
                  " in one parallel step",
              kNoCoord, k, cell[k]);
    }
    writer[cell[k]] = k;
  }
}

void check_hazards(Reporter& rep, const Plan& plan) {
  switch (plan.engine) {
    case PlanEngine::kJumping:
      check_jump_hazards(rep, plan);
      break;
    case PlanEngine::kBlocked:
      check_blocked_hazards(rep, plan);
      break;
    case PlanEngine::kElementwise:
      check_scatter_hazards(rep, "elementwise.write-write", plan.elementwise.cell,
                            plan.cells);
      break;
    case PlanEngine::kGeneralCap:
      check_scatter_hazards(rep, "gir.write-write", plan.gir.cell, plan.cells);
      break;
    case PlanEngine::kScan:
      // One left-to-right sequential sweep: no concurrent writes exist, so the
      // PRAM hazard families are vacuous by construction.
      break;
  }
}

// ---------------------------------------------------------------------------
// Symbolic replay.
// ---------------------------------------------------------------------------

/// Free monoid over opaque cell symbols: ⊙ is concatenation, so two term
/// vectors are equal iff the executions applied the same operands in the
/// same order — the Lemma-1 order-preservation property, machine-checked.
struct ConcatOp {
  using Value = std::vector<std::uint32_t>;
  [[nodiscard]] Value combine(const Value& a, const Value& b) const {
    Value out;
    out.reserve(a.size() + b.size());
    out.insert(out.end(), a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }
};

/// Free commutative monoid with atomic powers: sorted (cell, exponent) maps.
/// Equality is multiset equality of leaves — the GIR route's CAP contract.
struct ExpMapOp {
  using Value = std::vector<std::pair<std::uint32_t, support::BigUint>>;
  static constexpr bool is_commutative = true;

  [[nodiscard]] Value combine(const Value& a, const Value& b) const {
    Value out;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].first < b[j].first) {
        out.push_back(a[i++]);
      } else if (b[j].first < a[i].first) {
        out.push_back(b[j++]);
      } else {
        out.emplace_back(a[i].first, a[i].second + b[j].second);
        ++i;
        ++j;
      }
    }
    out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
    out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
    return out;
  }

  [[nodiscard]] Value pow(const Value& a, const support::BigUint& k) const {
    Value out = a;
    for (auto& [cell, exp] : out) exp = exp * k;
    return out;
  }
};

/// Estimate the total symbol volume of the sequential free-monoid replay
/// without materializing any term; false when it would exceed `cap`.
bool within_term_budget(const GeneralIrSystem& sys, std::size_t cap) {
  std::vector<std::uint64_t> len(sys.cells, 1);
  std::uint64_t total = sys.cells;
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    const std::uint64_t combined = len[sys.f[i]] + len[sys.h[i]];
    total += combined;
    if (combined > cap || total > cap) return false;
    len[sys.g[i]] = combined;
  }
  return true;
}

/// The sequential loop over the free monoid: per-cell Lemma-1 terms.
std::vector<ConcatOp::Value> sequential_terms(const GeneralIrSystem& sys) {
  std::vector<ConcatOp::Value> terms(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) terms[c] = {static_cast<std::uint32_t>(c)};
  const ConcatOp op;
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    terms[sys.g[i]] = op.combine(terms[sys.f[i]], terms[sys.h[i]]);
  }
  return terms;
}

/// The sequential loop over the free commutative monoid: per-cell exponents.
std::vector<ExpMapOp::Value> sequential_exponents(const GeneralIrSystem& sys) {
  std::vector<ExpMapOp::Value> exps(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) {
    exps[c] = {{static_cast<std::uint32_t>(c), support::BigUint{1}}};
  }
  const ExpMapOp op;
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    exps[sys.g[i]] = op.combine(exps[sys.f[i]], exps[sys.h[i]]);
  }
  return exps;
}

std::string render_terms(const ConcatOp::Value& terms, std::size_t limit = 12) {
  std::string out;
  for (std::size_t t = 0; t < terms.size(); ++t) {
    if (t == limit) {
      out += "*...(" + std::to_string(terms.size()) + " symbols)";
      break;
    }
    if (t != 0) out += '*';
    out += "A0[" + std::to_string(terms[t]) + "]";
  }
  return out.empty() ? "(identity)" : out;
}

std::string render_exponents(const ExpMapOp::Value& exps, std::size_t limit = 8) {
  std::string out;
  for (std::size_t t = 0; t < exps.size(); ++t) {
    if (t == limit) {
      out += "*...(" + std::to_string(exps.size()) + " leaves)";
      break;
    }
    if (t != 0) out += '*';
    out += "A0[" + std::to_string(exps[t].first) + "]^" + exps[t].second.to_string();
  }
  return out.empty() ? "(identity)" : out;
}

void check_symbolic(Reporter& rep, VerifyReport& report, const Plan& plan,
                    const GeneralIrSystem& sys, const VerifyOptions& options) {
  if (plan.engine == PlanEngine::kGeneralCap) {
    // Exponent-map cost is O(n * live leaves); guard with the same budget.
    if (sys.iterations() != 0 &&
        sys.cells > options.max_symbolic_terms / sys.iterations()) {
      report.symbolic_skipped = true;
      report.symbolic_skip_reason =
          "estimated exponent-map volume exceeds max_symbolic_terms";
      return;
    }
    const std::vector<ExpMapOp::Value> expected = sequential_exponents(sys);
    std::vector<ExpMapOp::Value> initial(sys.cells);
    for (std::size_t c = 0; c < sys.cells; ++c) {
      initial[c] = {{static_cast<std::uint32_t>(c), support::BigUint{1}}};
    }
    std::vector<ExpMapOp::Value> got;
    try {
      got = core::execute_plan(plan, ExpMapOp{}, std::move(initial));
    } catch (const std::exception& e) {
      rep.add(CheckFamily::kSymbolic, "symbolic.replay-threw",
              std::string("symbolic interpretation of the plan threw: ") + e.what());
      return;
    }
    for (std::size_t c = 0; c < sys.cells && !rep.saturated(); ++c) {
      if (got[c] != expected[c]) {
        rep.add(CheckFamily::kSymbolic, "symbolic.exponent-mismatch",
                "cell " + std::to_string(c) + ": plan computes " +
                    render_exponents(got[c]) + ", sequential loop computes " +
                    render_exponents(expected[c]),
                kNoCoord, kNoCoord, c);
      }
    }
    return;
  }

  if (!within_term_budget(sys, options.max_symbolic_terms)) {
    report.symbolic_skipped = true;
    report.symbolic_skip_reason =
        "estimated free-monoid term volume exceeds max_symbolic_terms";
    return;
  }
  const std::vector<ConcatOp::Value> expected = sequential_terms(sys);
  std::vector<ConcatOp::Value> initial(sys.cells);
  for (std::size_t c = 0; c < sys.cells; ++c) {
    initial[c] = {static_cast<std::uint32_t>(c)};
  }
  std::vector<ConcatOp::Value> got;
  try {
    got = core::execute_plan(plan, ConcatOp{}, std::move(initial));
  } catch (const std::exception& e) {
    rep.add(CheckFamily::kSymbolic, "symbolic.replay-threw",
            std::string("symbolic interpretation of the plan threw: ") + e.what());
    return;
  }
  for (std::size_t c = 0; c < sys.cells && !rep.saturated(); ++c) {
    if (got[c] != expected[c]) {
      rep.add(CheckFamily::kSymbolic, "symbolic.order-mismatch",
              "cell " + std::to_string(c) + ": plan computes " + render_terms(got[c]) +
                  ", sequential loop computes " + render_terms(expected[c]) +
                  " — operand order is not preserved",
              kNoCoord, kNoCoord, c);
    }
  }
}

}  // namespace

std::string VerifyReport::summary() const {
  if (ok()) {
    std::string out = "certified: engine=" + engine + ", " +
                      std::to_string(checks_run) + " check groups";
    if (symbolic_skipped) out += " (symbolic replay skipped: " + symbolic_skip_reason + ")";
    return out;
  }
  std::string out = "REJECTED (" + std::to_string(violations.size()) +
                    (truncated ? "+ violations" : " violations") + "): ";
  const std::size_t shown = std::min<std::size_t>(violations.size(), 3);
  for (std::size_t v = 0; v < shown; ++v) {
    if (v != 0) out += "; ";
    out += "[" + to_string(violations[v].family) + "] " + violations[v].code +
           coord_suffix(violations[v].round, violations[v].move, violations[v].cell);
  }
  if (violations.size() > shown) out += "; ...";
  return out;
}

std::string VerifyReport::to_json() const {
  auto coord = [](std::size_t value) {
    return value == kNoCoord ? std::string("null") : std::to_string(value);
  };
  std::string out = "{\n";
  out += "  \"ok\": " + std::string(ok() ? "true" : "false") + ",\n";
  out += "  \"engine\": " + obs::json_quote(engine) + ",\n";
  out += "  \"checks_run\": " + std::to_string(checks_run) + ",\n";
  out += "  \"symbolic_skipped\": " + std::string(symbolic_skipped ? "true" : "false") +
         ",\n";
  if (symbolic_skipped) {
    out += "  \"symbolic_skip_reason\": " + obs::json_quote(symbolic_skip_reason) + ",\n";
  }
  out += "  \"truncated\": " + std::string(truncated ? "true" : "false") + ",\n";
  out += "  \"violations\": [";
  for (std::size_t v = 0; v < violations.size(); ++v) {
    out += v == 0 ? "\n" : ",\n";
    const Violation& violation = violations[v];
    out += "    {\"family\": " + obs::json_quote(to_string(violation.family)) +
           ", \"code\": " + obs::json_quote(violation.code) +
           ", \"round\": " + coord(violation.round) +
           ", \"move\": " + coord(violation.move) +
           ", \"cell\": " + coord(violation.cell) +
           ", \"message\": " + obs::json_quote(violation.message) + "}";
  }
  out += violations.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

VerifyReport verify_plan(const Plan& plan, const GeneralIrSystem& sys,
                         const VerifyOptions& options) {
  sys.validate();
  VerifyReport report;
  report.engine = core::to_string(plan.engine);
  Reporter rep(report, options);

  // The bounds gate always runs: the later passes index through the tables.
  ++report.checks_run;
  const bool tables_sound = check_bounds(rep, plan, sys);

  if (options.check_preconditions && tables_sound) {
    ++report.checks_run;
    check_preconditions(rep, plan, sys);
  }
  if (options.check_hazards && tables_sound) {
    ++report.checks_run;
    check_hazards(rep, plan);
  }
  if (options.check_symbolic && tables_sound) {
    ++report.checks_run;
    check_symbolic(rep, report, plan, sys, options);
  }
  return report;
}

VerifyReport verify_plan(const Plan& plan, const core::OrdinaryIrSystem& sys,
                         const VerifyOptions& options) {
  sys.validate();
  return verify_plan(plan, GeneralIrSystem::from_ordinary(sys), options);
}

}  // namespace ir::verify
