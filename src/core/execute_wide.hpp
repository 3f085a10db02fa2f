// The wide (SoA lockstep) plan executor — the batch-first execute path.
//
// execute_plan() replays a schedule against ONE value array; a batch of K
// arrays replayed per-lane walks every schedule table K times and touches
// values column-by-column.  execute_wide() inverts that: the batch lives in
// a BatchView (batch_view.hpp, cell-major SoA), each schedule entry is
// loaded ONCE, and its ⊙ applies across all K lanes as one contiguous-row
// operation.  For ops that register a WideOps specialization the row
// arithmetic runs through the runtime-dispatched SIMD kernels (simd.hpp);
// every other op gets the same loop with per-lane op.combine.
//
// Cell-space execution: the scalar executor stages values in a trace-major
// array (seed copy in, schedule replay, scatter back out).  Because g is
// injective on every ordinary route, trace i owns exactly one cell
// (write_cell[i]), so the wide executor skips the staging entirely and runs
// the schedule directly on the batch rows.  The only ordering obligation
// that introduces is the seed phase: a chain root cell has no writer BEFORE
// its reader, but may be written by a LATER trace, so root folds must be
// applied in ascending trace order (reader folds the still-initial root row
// before any later trace overwrites that cell).
//
// Bit-exactness contract: every variant — per-lane execute_plan, wide
// scalar rows, wide SIMD rows — applies the same ⊙s to the same operands in
// the same association, so results are bit-identical across all of them
// (the irfuzz differential legs assert this, including for non-commutative
// ops).  The wide executor never reassociates; it only reorders ACROSS
// independent lanes.
//
// Engine notes:
//   * jumping: double-buffered rounds over rows.  With a registered
//     WideOps kernel a whole round is ONE dispatched call (jump_round);
//     at K = 1 with a dense batch it degenerates further to one SIMD
//     gather.  The generic path keeps per-move row ⊙s with software
//     prefetch of upcoming source rows.
//   * scan: the chain fast route's sequential fold, row-at-a-time.
//   * blocked: the same two-phase sweep as the scalar executor, row-wise.
//   * elementwise: one row ⊙ per written cell.
//   * gir-cap: replayed per-lane (a CAP term fold has no useful row
//     structure); kept here so every plan accepts the batch API.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/batch_view.hpp"
#include "core/plan.hpp"
#include "core/simd.hpp"
#include "obs/telemetry.hpp"
#include "support/contract.hpp"

namespace ir::core {

/// Registry of SIMD row kernels per op type.  The primary template disables
/// them (rows run per-lane op.combine, still SoA and still bit-identical);
/// a specialization routes row combines through simd.hpp.  Only ops whose ⊙
/// is plain lane-wise machine arithmetic qualify — kernels must be
/// bit-identical to op.combine per lane.  A specialization provides all
/// three kernels: combine_rows, gather_combine, and jump_round.
template <typename Op>
struct WideOps {
  static constexpr bool kEnabled = false;
};

/// uint64 wrapping addition: the jump-round and row-fold kernels vectorize
/// directly (AVX2 when the CPU has it, scalar otherwise — same results).
template <>
struct WideOps<algebra::AddMonoid<std::uint64_t>> {
  static constexpr bool kEnabled = true;

  static void combine_rows(const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* out, std::size_t count) {
    simd::add_rows_u64(a, b, out, count);
  }

  /// One whole K = 1 jump round through its move tables:
  /// out[k] = val[src[k]] ⊙ val[dst[k]].  `out` must not alias `val`.
  static void gather_combine(const std::uint64_t* val, const std::uint32_t* dst,
                             const std::uint32_t* src, std::uint64_t* out,
                             std::size_t count) {
    simd::gather_add_u64(val, dst, src, out, count);
  }

  /// One whole K-lane jump round (all reads into scratch, then the writes):
  /// one dispatched call per round instead of one per move.
  static void jump_round(std::uint64_t* val, std::size_t stride,
                         const std::uint32_t* dst, const std::uint32_t* src,
                         std::uint64_t* scratch, std::size_t width,
                         std::size_t lanes) {
    simd::jump_round_u64(val, stride, dst, src, scratch, width, lanes);
  }
};

namespace detail {

/// out_row = a_row ⊙ b_row across `lanes` lanes.  Rows may alias (the scan
/// fold and the in-place seed write over an operand); the per-lane order
/// matches the scalar executor's.
template <typename Op, typename Value>
inline void wide_combine_rows(const Op& op, const Value* a, const Value* b,
                              Value* out, std::size_t lanes) {
  if constexpr (WideOps<Op>::kEnabled) {
    WideOps<Op>::combine_rows(a, b, out, lanes);
  } else {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[lane] = op.combine(a[lane], b[lane]);
    }
  }
}

/// The in-place seed phase: fold each chain root's row into its reader's
/// cell row, ascending.  Ascending order is what makes in-place legal — a
/// root cell is unwritten before its reader but may be the write cell of a
/// LATER trace, and that later write (here or in the rounds) must not be
/// visible to the fold.
template <typename Op, typename Value>
void wide_seed_in_place(const Op& op, const Plan& plan, BatchView<Value>& batch) {
  const std::size_t lanes = batch.lanes();
  for (std::size_t i = 0; i < plan.iterations; ++i) {
    const std::uint32_t root = plan.root_cell[i];
    if (root == kNoIndex32) continue;
    Value* self = batch.row(plan.write_cell[i]);
    wide_combine_rows(op, batch.row(root), self, self, lanes);
  }
}

/// Translate a trace-indexed move table into cell space once per execute:
/// the rounds then address batch rows directly.
inline std::vector<std::uint32_t> to_cell_space(
    const PlanTable<std::uint32_t>& trace_idx, const Plan& plan) {
  std::vector<std::uint32_t> cells(trace_idx.size());
  for (std::size_t k = 0; k < trace_idx.size(); ++k) {
    cells[k] = plan.write_cell[trace_idx[k]];
  }
  return cells;
}

/// The jumping schedule, row-wise in cell space: double-buffered
/// rounds exactly like the scalar executor.  Registered WideOps run one
/// kernel call per round (and at K = 1 one whole-round SIMD gather); the
/// generic path keeps per-move row ⊙s with software prefetch of upcoming
/// source rows.
template <typename Op, typename Value>
BatchView<Value> wide_execute_jump(const Op& op, const Plan& plan,
                                   BatchView<Value> batch) {
  const JumpSchedule& js = plan.jump;
  const std::size_t lanes = batch.lanes();
  wide_seed_in_place(op, plan, batch);
  if (js.moves() == 0) return batch;
  const std::vector<std::uint32_t> dst = to_cell_space(js.dst, plan);
  const std::vector<std::uint32_t> src = to_cell_space(js.src, plan);

  if constexpr (WideOps<Op>::kEnabled) {
    // Kernel path: Value is trivially constructible machine arithmetic, so
    // the round scratch can stay uninitialized — every element read in a
    // round was written by that round's phase 1.
    std::unique_ptr<Value[]> scratch(new Value[js.peak_active * lanes]);
    for (std::size_t r = 0; r < js.rounds(); ++r) {
      IR_SPAN("wide.round");
      const auto [begin, round_end] = js.round_span(r);
      const std::size_t width = round_end - begin;
      if (lanes == 1 && batch.stride() == 1) {
        // K = 1 over a dense batch: rows are scalars, so the whole round is
        // one gather through the move tables.
        WideOps<Op>::gather_combine(batch.row(0), dst.data() + begin,
                                    src.data() + begin, scratch.get(), width);
        for (std::size_t k = 0; k < width; ++k) {
          batch.row(0)[dst[begin + k]] = scratch[k];
        }
      } else {
        WideOps<Op>::jump_round(batch.row(0), batch.stride(), dst.data() + begin,
                                src.data() + begin, scratch.get(), width, lanes);
      }
    }
    return batch;
  }

  BatchView<Value> scratch(js.peak_active, lanes);

  // How far ahead of the current move to touch the next sources (generic
  // path only; the WideOps kernels prefetch internally).  Far enough to
  // cover DRAM latency at one move per row op, small enough that the lines
  // are still resident when reached.
  constexpr std::size_t kPrefetchDistance = 8;

  for (std::size_t r = 0; r < js.rounds(); ++r) {
    IR_SPAN("wide.round");
    const auto [begin, round_end] = js.round_span(r);
    const std::size_t width = round_end - begin;
    for (std::size_t k = 0; k < width; ++k) {
      if (k + kPrefetchDistance < width) {
        __builtin_prefetch(batch.row(src[begin + k + kPrefetchDistance]));
        __builtin_prefetch(batch.row(dst[begin + k + kPrefetchDistance]));
      }
      wide_combine_rows(op, batch.row(src[begin + k]), batch.row(dst[begin + k]),
                        scratch.row(k), lanes);
    }
    for (std::size_t k = 0; k < width; ++k) {
      const Value* from = scratch.row(k);
      Value* out = batch.row(dst[begin + k]);
      for (std::size_t lane = 0; lane < lanes; ++lane) out[lane] = from[lane];
    }
  }
  return batch;
}

/// The chain fast route, row-wise in cell space: one ascending pass — a
/// head trace folds its root row (if it reads one), every other trace folds
/// its predecessor's (already final) cell row.
template <typename Op, typename Value>
BatchView<Value> wide_execute_scan(const Op& op, const Plan& plan,
                                   BatchView<Value> batch) {
  const ScanSchedule& ss = plan.scan;
  const std::size_t lanes = batch.lanes();
  for (std::size_t i = 0; i < plan.iterations; ++i) {
    Value* self = batch.row(plan.write_cell[i]);
    if (ss.head[i] != 0) {
      const std::uint32_t root = plan.root_cell[i];
      if (root != kNoIndex32) {
        wide_combine_rows(op, batch.row(root), self, self, lanes);
      }
    } else {
      wide_combine_rows(op, batch.row(plan.write_cell[i - 1]), self, self, lanes);
    }
  }
  return batch;
}

/// The blocked schedule, row-wise in cell space: phase-1 block sweeps (root
/// or local-predecessor folds, ascending) then the ascending phase-2
/// fix-ups, each step one row combine.
template <typename Op, typename Value>
BatchView<Value> wide_execute_blocked(const Op& op, const Plan& plan,
                                      BatchView<Value> batch) {
  const BlockedSchedule& bs = plan.blocked;
  const std::size_t lanes = batch.lanes();
  for (const auto& block : bs.blocks) {
    for (std::size_t i = block.begin; i < block.end; ++i) {
      Value* self = batch.row(plan.write_cell[i]);
      const std::uint32_t root = plan.root_cell[i];
      if (root != kNoIndex32) {
        wide_combine_rows(op, batch.row(root), self, self, lanes);
      } else if (bs.local_pred[i] != kNoIndex32) {
        wide_combine_rows(op, batch.row(plan.write_cell[bs.local_pred[i]]), self,
                          self, lanes);
      }
    }
  }
  for (std::size_t b = 0; b < bs.blocks.size(); ++b) {
    const auto [begin, fix_end] = bs.fix_span(b);
    for (std::size_t k = begin; k < fix_end; ++k) {
      Value* self = batch.row(plan.write_cell[bs.fix_dst[k]]);
      wide_combine_rows(op, batch.row(plan.write_cell[bs.fix_src[k]]), self, self,
                        lanes);
    }
  }
  return batch;
}

/// The no-recurrence route, row-wise: one row ⊙ per written cell, reading
/// from a snapshot of the inputs (a written cell may also be read).
template <typename Op, typename Value>
BatchView<Value> wide_execute_elementwise(const Op& op, const Plan& plan,
                                          const BatchView<Value>& batch) {
  const ElementwiseSchedule& es = plan.elementwise;
  BatchView<Value> result = batch;
  for (std::size_t k = 0; k < es.cell.size(); ++k) {
    wide_combine_rows(op, batch.row(es.f[k]), batch.row(es.h[k]),
                      result.row(es.cell[k]), batch.lanes());
  }
  return result;
}

}  // namespace detail

template <algebra::BinaryOperation Op>
BatchView<typename Op::Value> execute_wide(const Plan& plan, const Op& op,
                                           BatchView<typename Op::Value> batch,
                                           const ExecOptions& exec) {
  using Value = typename Op::Value;
  IR_REQUIRE(batch.cells() == plan.cells, "batch must have `cells` rows");
  if (batch.empty()) return batch;
  IR_SPAN("plan.execute_wide");
  IR_COUNTER_ADD("wide.executes", 1);
  IR_COUNTER_ADD("wide.lanes", batch.lanes());
  if (WideOps<Op>::kEnabled) IR_COUNTER_ADD("wide.simd_eligible", 1);

  switch (plan.engine) {
    case PlanEngine::kElementwise:
      return detail::wide_execute_elementwise(op, plan, batch);
    case PlanEngine::kJumping:
      batch = detail::wide_execute_jump(op, plan, std::move(batch));
      detail::record_exec_stats(plan, exec);
      return batch;
    case PlanEngine::kScan:
      batch = detail::wide_execute_scan(op, plan, std::move(batch));
      detail::record_exec_stats(plan, exec);
      return batch;
    case PlanEngine::kBlocked:
      batch = detail::wide_execute_blocked(op, plan, std::move(batch));
      detail::record_exec_stats(plan, exec);
      return batch;
    case PlanEngine::kGeneralCap: {
      // A CAP term fold has no row structure worth exploiting; replay the
      // lanes through the scalar executor so every plan accepts this API.
      IR_COUNTER_ADD("wide.gir_per_lane", batch.lanes());
      ExecOptions inner = exec;
      inner.ordinary_stats = nullptr;
      inner.blocked_stats = nullptr;
      const std::size_t lanes = batch.lanes();
      std::vector<Value> lane_vals;
      lane_vals.reserve(plan.cells);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        lane_vals.clear();
        for (std::size_t cell = 0; cell < plan.cells; ++cell) {
          lane_vals.push_back(batch.at(cell, lane));
        }
        auto out = execute_plan(plan, op, std::move(lane_vals), inner);
        for (std::size_t cell = 0; cell < plan.cells; ++cell) {
          batch.at(cell, lane) = std::move(out[cell]);
        }
        lane_vals = std::move(out);
      }
      return batch;
    }
  }
  IR_REQUIRE(false, "unknown plan engine");
  return batch;
}

/// Batch-first execute_many: the SoA overload.  kAuto and kWide run the wide
/// executor; kScalar replays each lane through execute_plan (useful for A/B
/// checks — the results are bit-identical either way).
template <algebra::BinaryOperation Op>
BatchView<typename Op::Value> execute_many(const Plan& plan, const Op& op,
                                           BatchView<typename Op::Value> batch,
                                           const ExecOptions& exec = {}) {
  using Value = typename Op::Value;
  if (exec.variant != ExecVariant::kScalar) {
    return execute_wide(plan, op, std::move(batch), exec);
  }
  IR_REQUIRE(batch.cells() == plan.cells, "batch must have `cells` rows");
  ExecOptions inner = exec;
  inner.ordinary_stats = nullptr;
  inner.blocked_stats = nullptr;
  std::vector<Value> lane_vals;
  for (std::size_t lane = 0; lane < batch.lanes(); ++lane) {
    lane_vals.clear();
    lane_vals.reserve(plan.cells);
    for (std::size_t cell = 0; cell < plan.cells; ++cell) {
      lane_vals.push_back(batch.at(cell, lane));
    }
    auto out = execute_plan(plan, op, std::move(lane_vals), inner);
    for (std::size_t cell = 0; cell < plan.cells; ++cell) {
      batch.at(cell, lane) = std::move(out[cell]);
    }
    lane_vals = std::move(out);
  }
  return batch;
}

}  // namespace ir::core
