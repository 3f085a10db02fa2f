#include "verify/cost.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics_export.hpp"  // obs::json_quote
#include "support/bigint.hpp"
#include "support/contract.hpp"

namespace ir::verify {

namespace {

using core::kNoIndex32;
using core::Plan;

/// ceil(log2(n)) for n >= 1 — the depth of a pairwise fold tree.
std::size_t ceil_log2(std::size_t n) {
  std::size_t depth = 0;
  std::size_t reach = 1;
  while (reach < n) {
    reach *= 2;
    ++depth;
  }
  return depth;
}

/// Accumulates one synchronous step into a phase.  `reads` and `writes` are
/// the step's raw shared accesses as array-local cell indices; the vectors
/// are consumed (sorted in place).
class StepModel {
 public:
  explicit StepModel(const CostOptions& options) : options_(options) {}

  void step(PhaseCost& phase, std::vector<std::uint32_t> reads,
            std::vector<std::uint32_t> writes) const {
    ++phase.steps;

    // Reads coalesce in both modes: concurrent read is granted, so k readers
    // of one cell are one broadcast access.  Writes coalesce only under the
    // combining-write (CRCW) model.
    dedupe(reads);
    if (options_.mode == BankMode::kCrcw) dedupe(writes);

    phase.reads += reads.size();
    phase.writes += writes.size();

    // Footprint: distinct cells touched this step, reads and writes pooled.
    std::vector<std::uint32_t> touched = reads;
    touched.insert(touched.end(), writes.begin(), writes.end());
    dedupe(touched);
    phase.footprint = std::max(phase.footprint, touched.size());

    // Each cycle group (reads, then writes) is paid separately: the
    // executors double-buffer, so a step's reads never race its writes.
    const Group read_group = charge(reads);
    const Group write_group = charge(writes);
    phase.peak_bank_occupancy = std::max(
        phase.peak_bank_occupancy, std::max(read_group.peak, write_group.peak));
    if (phase.sequential) {
      // One access per cycle by construction; never any bank contention.
      phase.bank_cycles += reads.size() + writes.size();
    } else {
      phase.bank_cycles += read_group.cycles + write_group.cycles;
      phase.stalls += (read_group.cycles - read_group.ideal) +
                      (write_group.cycles - write_group.ideal);
    }
  }

 private:
  struct Group {
    std::size_t peak = 0;    ///< max accesses on one bank
    std::size_t cycles = 0;  ///< == peak (the group takes `peak` bank cycles)
    std::size_t ideal = 0;   ///< ceil(accesses / banks)
  };

  static void dedupe(std::vector<std::uint32_t>& cells) {
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  }

  Group charge(const std::vector<std::uint32_t>& accesses) const {
    Group group;
    if (accesses.empty()) return group;
    std::vector<std::size_t> occupancy(options_.banks, 0);
    for (const std::uint32_t cell : accesses) {
      group.peak = std::max(group.peak, ++occupancy[cell % options_.banks]);
    }
    group.cycles = group.peak;
    group.ideal = (accesses.size() + options_.banks - 1) / options_.banks;
    return group;
  }

  const CostOptions& options_;
};

/// The seed step shared by the ordinary engines: every trace i reads its
/// self value initial[write_cell[i]] (roots additionally read initial[root]
/// and pay one ⊙), and writes trace slot i.
void seed_phase(const Plan& plan, const StepModel& model, CostReport& report,
                std::size_t seed_ops) {
  const std::size_t n = plan.iterations;
  if (n == 0) return;
  PhaseCost phase;
  phase.name = "seed";
  phase.ops = seed_ops;
  std::vector<std::uint32_t> reads;
  std::vector<std::uint32_t> writes;
  reads.reserve(n);
  writes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reads.push_back(plan.write_cell[i]);
    if (plan.root_cell[i] != kNoIndex32) reads.push_back(plan.root_cell[i]);
    writes.push_back(static_cast<std::uint32_t>(i));
  }
  model.step(phase, std::move(reads), std::move(writes));
  report.phases.push_back(std::move(phase));
}

/// The final scatter shared by the ordinary engines: trace i is written back
/// to its equation's cell (g injective, so the writes are exclusive).
void scatter_phase(const Plan& plan, const StepModel& model, CostReport& report) {
  const std::size_t n = plan.iterations;
  if (n == 0) return;
  PhaseCost phase;
  phase.name = "scatter";
  std::vector<std::uint32_t> reads;
  std::vector<std::uint32_t> writes;
  reads.reserve(n);
  writes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reads.push_back(static_cast<std::uint32_t>(i));
    writes.push_back(plan.write_cell[i]);
  }
  model.step(phase, std::move(reads), std::move(writes));
  report.phases.push_back(std::move(phase));
}

std::size_t count_seed_ops_from_roots(const Plan& plan) {
  std::size_t ops = 0;
  for (std::size_t i = 0; i < plan.iterations; ++i) {
    if (plan.root_cell[i] != kNoIndex32) ++ops;
  }
  return ops;
}

void cost_jumping(const Plan& plan, const StepModel& model, CostReport& report) {
  const core::JumpSchedule& js = plan.jump;
  seed_phase(plan, model, report, js.seed_ops);
  for (std::size_t r = 0; r < js.rounds(); ++r) {
    const auto [begin, end] = js.round_span(r);
    PhaseCost phase;
    phase.name = "round " + std::to_string(r);
    phase.ops = end - begin;
    std::vector<std::uint32_t> reads;
    std::vector<std::uint32_t> writes;
    reads.reserve(2 * (end - begin));
    writes.reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      reads.push_back(js.src[k]);
      reads.push_back(js.dst[k]);
      writes.push_back(js.dst[k]);
    }
    model.step(phase, std::move(reads), std::move(writes));
    report.phases.push_back(std::move(phase));
  }
  scatter_phase(plan, model, report);
  report.work = js.seed_ops + js.moves();
  report.depth = js.rounds() + (js.seed_ops > 0 ? 1 : 0);
  report.rounds = js.rounds();
}

void cost_blocked(const Plan& plan, const StepModel& model, CostReport& report) {
  const core::BlockedSchedule& bs = plan.blocked;
  // The model charges each root ⊙ to its block's sweep, where the schedule
  // allows it; the scalar executor folds roots into its seed instead.  Work
  // is the same either way.
  seed_phase(plan, model, report, 0);

  // Phase 1: every block sweeps sequentially, blocks in lockstep — sub-step
  // t touches each block's element begin + t.  The longest per-block ⊙ chain
  // is the phase's contribution to depth.
  std::size_t max_block_steps = 0;
  std::size_t max_block_ops = 0;
  if (plan.iterations > 0 && bs.blocks.size() > 0) {
    PhaseCost phase;
    phase.name = "block sweep";
    phase.ops = bs.phase1_ops;
    for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
      const auto& block = bs.blocks[b];
      max_block_steps = std::max(max_block_steps, block.end - block.begin);
      std::size_t block_ops = 0;
      for (std::size_t i = block.begin; i < block.end; ++i) {
        if (plan.root_cell[i] != kNoIndex32 || bs.local_pred[i] != kNoIndex32) {
          ++block_ops;
        }
      }
      max_block_ops = std::max(max_block_ops, block_ops);
    }
    for (std::size_t t = 0; t < max_block_steps; ++t) {
      std::vector<std::uint32_t> reads;
      std::vector<std::uint32_t> writes;
      for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
        const auto& block = bs.blocks[b];
        const std::size_t i = block.begin + t;
        if (i >= block.end) continue;
        const std::uint32_t root = plan.root_cell[i];
        const std::uint32_t pred = bs.local_pred[i];
        if (root == kNoIndex32 && pred == kNoIndex32) continue;
        reads.push_back(root != kNoIndex32 ? root : pred);
        reads.push_back(static_cast<std::uint32_t>(i));  // the ⊙ self operand
        writes.push_back(static_cast<std::uint32_t>(i));
      }
      model.step(phase, std::move(reads), std::move(writes));
    }
    report.phases.push_back(std::move(phase));
  }

  // Phase 2: ascending blocks, each non-empty fix-up slice one parallel step.
  if (bs.partials() > 0) {
    PhaseCost phase;
    phase.name = "resolve";
    phase.ops = bs.partials();
    for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
      const auto [begin, end] = bs.fix_span(b);
      if (begin == end) continue;
      std::vector<std::uint32_t> reads;
      std::vector<std::uint32_t> writes;
      for (std::size_t k = begin; k < end; ++k) {
        reads.push_back(bs.fix_src[k]);
        reads.push_back(bs.fix_dst[k]);
        writes.push_back(bs.fix_dst[k]);
      }
      model.step(phase, std::move(reads), std::move(writes));
    }
    report.phases.push_back(std::move(phase));
  }

  scatter_phase(plan, model, report);
  report.work = bs.phase1_ops + bs.partials();
  // Each partial gets exactly one fix-up ⊙ whose source is already complete,
  // so the critical path is the longest block sweep plus that single layer.
  report.depth = max_block_ops + (bs.partials() > 0 ? 1 : 0);
  report.rounds = bs.resolve_rounds;
}

void cost_scan(const Plan& plan, const StepModel& model, CostReport& report) {
  const core::ScanSchedule& ss = plan.scan;
  const std::size_t n = plan.iterations;
  const std::size_t seed_ops = count_seed_ops_from_roots(plan);
  seed_phase(plan, model, report, seed_ops);

  if (n > 0) {
    // The segmented fold is sequential by design (bit-identical to the
    // reference loop): element i of a segment reads val[i-1] and val[i].
    PhaseCost phase;
    phase.sequential = true;
    phase.name = "scan";
    for (std::size_t i = 0; i < n; ++i) {
      if (ss.head[i] != 0) {
        model.step(phase, {}, {});
        continue;
      }
      ++phase.ops;
      model.step(phase,
                 {static_cast<std::uint32_t>(i - 1), static_cast<std::uint32_t>(i)},
                 {static_cast<std::uint32_t>(i)});
    }
    report.phases.push_back(std::move(phase));
  }

  scatter_phase(plan, model, report);
  report.work = seed_ops + (n - std::min(ss.segments, n));
  // Sequential critical path: the longest chain folds one ⊙ per element
  // after its head, plus the head's root seed when present.
  report.depth = ss.longest > 0 ? ss.longest - 1 + (seed_ops > 0 ? 1 : 0)
                                : (seed_ops > 0 ? 1 : 0);
  report.rounds = 0;
}

void cost_elementwise(const Plan& plan, const StepModel& model, CostReport& report) {
  const core::ElementwiseSchedule& es = plan.elementwise;
  if (es.cell.size() > 0) {
    PhaseCost phase;
    phase.name = "apply";
    phase.ops = es.cell.size();
    std::vector<std::uint32_t> reads;
    std::vector<std::uint32_t> writes;
    for (std::size_t k = 0; k < es.cell.size(); ++k) {
      reads.push_back(es.f[k]);
      reads.push_back(es.h[k]);
      writes.push_back(es.cell[k]);
    }
    model.step(phase, std::move(reads), std::move(writes));
    report.phases.push_back(std::move(phase));
  }
  report.work = es.cell.size();
  report.depth = es.cell.size() > 0 ? 1 : 0;
}

void cost_gir(const Plan& plan, const StepModel& model, CostReport& report) {
  const core::GirSchedule& gs = plan.gir;
  const support::BigUint one{1};
  if (gs.cell.size() > 0) {
    // One parallel step per entry set: every entry gathers its term cells
    // from the frozen snapshot, folds them pairwise locally (op.pow is one
    // ⊙), and writes its cell.
    PhaseCost phase;
    phase.name = "fold";
    std::vector<std::uint32_t> reads;
    std::vector<std::uint32_t> writes;
    for (std::size_t e = 0; e < gs.cell.size(); ++e) {
      const auto [begin, end] = gs.term_span(e);
      const std::size_t terms = end - begin;
      std::size_t pow_ops = 0;
      for (std::size_t t = begin; t < end; ++t) {
        reads.push_back(gs.term_cell[t]);
        if (gs.term_exp[t] != one) ++pow_ops;
      }
      writes.push_back(gs.cell[e]);
      const std::size_t fold_ops = terms > 0 ? terms - 1 : 0;
      phase.ops += fold_ops + pow_ops;
      report.depth = std::max(
          report.depth, ceil_log2(std::max<std::size_t>(terms, 1)) +
                            (pow_ops > 0 ? std::size_t{1} : std::size_t{0}));
    }
    model.step(phase, std::move(reads), std::move(writes));
    report.work = phase.ops;
    report.phases.push_back(std::move(phase));
  }
}

}  // namespace

const char* to_string(BankMode mode) {
  return mode == BankMode::kCrew ? "crew" : "crcw";
}

CostReport cost_plan(const Plan& plan, const CostOptions& options) {
  IR_REQUIRE(options.banks >= 1, "cost_plan needs at least one memory bank");
  CostReport report;
  report.engine = core::to_string(plan.engine);
  report.banks = options.banks;
  report.mode = options.mode;

  const StepModel model(options);
  switch (plan.engine) {
    case core::PlanEngine::kJumping:
      cost_jumping(plan, model, report);
      break;
    case core::PlanEngine::kBlocked:
      cost_blocked(plan, model, report);
      break;
    case core::PlanEngine::kScan:
      cost_scan(plan, model, report);
      break;
    case core::PlanEngine::kElementwise:
      cost_elementwise(plan, model, report);
      break;
    case core::PlanEngine::kGeneralCap:
      cost_gir(plan, model, report);
      break;
  }

  for (const PhaseCost& phase : report.phases) {
    report.steps += phase.steps;
    report.peak_footprint = std::max(report.peak_footprint, phase.footprint);
    report.peak_bank_occupancy =
        std::max(report.peak_bank_occupancy, phase.peak_bank_occupancy);
    report.bank_cycles += phase.bank_cycles;
    report.stalls += phase.stalls;
  }
  return report;
}

std::string CostReport::summary() const {
  std::string out = engine;
  out += ": W=" + std::to_string(work);
  out += " D=" + std::to_string(depth);
  out += " steps=" + std::to_string(steps);
  out += " rounds=" + std::to_string(rounds);
  out += " footprint=" + std::to_string(peak_footprint);
  out += " banks=" + std::to_string(banks) + "/" + to_string(mode);
  out += " occupancy=" + std::to_string(peak_bank_occupancy);
  out += " cycles=" + std::to_string(bank_cycles);
  out += " stalls=" + std::to_string(stalls);
  return out;
}

std::string CostReport::to_json() const {
  std::string out = "{\n";
  out += "  \"engine\": " + obs::json_quote(engine) + ",\n";
  out += "  \"banks\": " + std::to_string(banks) + ",\n";
  out += "  \"mode\": " + obs::json_quote(to_string(mode)) + ",\n";
  out += "  \"work\": " + std::to_string(work) + ",\n";
  out += "  \"depth\": " + std::to_string(depth) + ",\n";
  out += "  \"steps\": " + std::to_string(steps) + ",\n";
  out += "  \"rounds\": " + std::to_string(rounds) + ",\n";
  out += "  \"peak_footprint\": " + std::to_string(peak_footprint) + ",\n";
  out += "  \"peak_bank_occupancy\": " + std::to_string(peak_bank_occupancy) + ",\n";
  out += "  \"bank_cycles\": " + std::to_string(bank_cycles) + ",\n";
  out += "  \"stalls\": " + std::to_string(stalls) + ",\n";
  out += "  \"phases\": [";
  for (std::size_t p = 0; p < phases.size(); ++p) {
    out += p == 0 ? "\n" : ",\n";
    const PhaseCost& phase = phases[p];
    out += "    {\"name\": " + obs::json_quote(phase.name) +
           ", \"steps\": " + std::to_string(phase.steps) +
           ", \"ops\": " + std::to_string(phase.ops) +
           ", \"reads\": " + std::to_string(phase.reads) +
           ", \"writes\": " + std::to_string(phase.writes) +
           ", \"footprint\": " + std::to_string(phase.footprint) +
           ", \"peak_bank_occupancy\": " + std::to_string(phase.peak_bank_occupancy) +
           ", \"bank_cycles\": " + std::to_string(phase.bank_cycles) +
           ", \"stalls\": " + std::to_string(phase.stalls) +
           ", \"sequential\": " + (phase.sequential ? "true" : "false") + "}";
  }
  out += phases.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ir::verify
