// The wide executor's bit-exactness contract: for every engine and every
// operation — SIMD-eligible or not — execute_wide over a K-lane SoA batch
// must reproduce per-lane execute_plan exactly, and the runtime SIMD
// dispatch seam must never change a result.
#include "core/execute_wide.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/simd.hpp"
#include "core/solver.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

using algebra::AddMonoid;
using algebra::ConcatMonoid;
using algebra::ModMulMonoid;

/// Both stats sinks of one execute.
struct ExecStats {
  OrdinaryIrStats ordinary;
  BlockedIrStats blocked;

  ExecOptions sinks() { return {.ordinary_stats = &ordinary, .blocked_stats = &blocked}; }
};

/// execute_wide vs per-lane execute_plan on `lanes` distinct value-sets: the
/// values must match bit for bit, and both variants must fill the same stats.
template <typename Op>
void expect_wide_matches_scalar(const Op& op, const Plan& plan,
                                const std::vector<std::vector<typename Op::Value>>& rows) {
  ExecStats wide_stats;
  ExecStats scalar_stats;
  auto batch = BatchView<typename Op::Value>::from_rows(rows, plan.cells);
  const auto wide = execute_wide(plan, op, std::move(batch), wide_stats.sinks());
  ASSERT_EQ(wide.lanes(), rows.size());
  for (std::size_t lane = 0; lane < rows.size(); ++lane) {
    const auto scalar = execute_plan(plan, op, rows[lane], scalar_stats.sinks());
    for (std::size_t cell = 0; cell < plan.cells; ++cell) {
      ASSERT_EQ(wide.at(cell, lane), scalar[cell])
          << "cell " << cell << " lane " << lane << " engine "
          << to_string(plan.engine);
    }
  }
  const std::string engine = to_string(plan.engine);
  EXPECT_EQ(wide_stats.ordinary.rounds, scalar_stats.ordinary.rounds) << engine;
  EXPECT_EQ(wide_stats.ordinary.op_applications, scalar_stats.ordinary.op_applications)
      << engine;
  EXPECT_EQ(wide_stats.ordinary.peak_active, scalar_stats.ordinary.peak_active) << engine;
  EXPECT_EQ(wide_stats.blocked.blocks, scalar_stats.blocked.blocks) << engine;
  EXPECT_EQ(wide_stats.blocked.partials, scalar_stats.blocked.partials) << engine;
  EXPECT_EQ(wide_stats.blocked.resolve_rounds, scalar_stats.blocked.resolve_rounds) << engine;
  EXPECT_EQ(wide_stats.blocked.op_applications, scalar_stats.blocked.op_applications)
      << engine;
}

std::vector<std::vector<std::uint64_t>> numeric_rows(std::size_t cells,
                                                     std::size_t lanes) {
  std::vector<std::vector<std::uint64_t>> rows(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    rows[k].resize(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      rows[k][c] = 1 + (c * 2654435761ull + k * 40503ull) % 1000;
    }
  }
  return rows;
}

TEST(ExecuteWideTest, OrdinaryEnginesMatchPerLaneExecution) {
  support::SplitMix64 rng(2024);
  const auto ord = testing::random_ordinary_system(300, 400, rng, 0.85);
  const AddMonoid<std::uint64_t> add;
  const auto rows = numeric_rows(ord.cells, 5);
  for (const EngineChoice engine : {EngineChoice::kJumping, EngineChoice::kBlocked}) {
    PlanOptions options;
    options.engine = engine;
    options.blocks = 3;
    const Plan plan = compile_plan(ord, options);
    expect_wide_matches_scalar(add, plan, rows);

    // The figures themselves: one ⊙ per root seed plus the replayed ones.
    ExecStats stats;
    (void)execute_plan(plan, add, rows[0], stats.sinks());
    if (plan.engine == PlanEngine::kBlocked) {
      EXPECT_EQ(stats.blocked.blocks, 3u);
      EXPECT_EQ(stats.blocked.op_applications,
                plan.blocked.phase1_ops + plan.blocked.partials());
      EXPECT_EQ(stats.ordinary.op_applications, stats.blocked.op_applications);
    } else {
      EXPECT_EQ(stats.ordinary.rounds, plan.jump.rounds());
      EXPECT_EQ(stats.ordinary.op_applications, plan.jump.seed_ops + plan.jump.moves());
    }
  }
}

TEST(ExecuteWideTest, ScanEngineMatchesPerLaneExecution) {
  OrdinaryIrSystem chain;
  chain.cells = 513;
  for (std::size_t i = 0; i + 1 < chain.cells; ++i) {
    chain.f.push_back(i);
    chain.g.push_back(i + 1);
  }
  const Plan plan = compile_plan(chain);
  ASSERT_EQ(plan.engine, PlanEngine::kScan);
  expect_wide_matches_scalar(AddMonoid<std::uint64_t>{}, plan,
                             numeric_rows(chain.cells, 4));
}

TEST(ExecuteWideTest, GeneralAndElementwisePlansAcceptBatches) {
  const ModMulMonoid op(1'000'000'007ull);
  // GIR: the Fibonacci loop, replayed per-lane inside execute_wide.
  GeneralIrSystem fib;
  fib.cells = 40;
  for (std::size_t i = 2; i < fib.cells; ++i) {
    fib.f.push_back(i - 1);
    fib.g.push_back(i);
    fib.h.push_back(i - 2);
  }
  expect_wide_matches_scalar(op, compile_plan(fib), numeric_rows(fib.cells, 3));

  // Elementwise: no dependences, one row op per written cell.
  GeneralIrSystem streaming{8, {6, 7}, {0, 1}, {6, 6}};
  const Plan plan = compile_plan(streaming);
  ASSERT_EQ(plan.engine, PlanEngine::kElementwise);
  expect_wide_matches_scalar(op, plan, numeric_rows(8, 6));
}

TEST(ExecuteWideTest, NonCommutativeStringsTakeTheGenericRowPath) {
  // ConcatMonoid has no WideOps kernels, so this exercises the per-lane
  // op.combine row loop — and pins operand order at the same time.
  static_assert(!WideOps<ConcatMonoid>::kEnabled);
  static_assert(WideOps<AddMonoid<std::uint64_t>>::kEnabled);

  support::SplitMix64 rng(77);
  const auto ord = testing::random_ordinary_system(24, 40, rng, 0.8);
  std::vector<std::vector<std::string>> rows(3);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    for (std::size_t c = 0; c < ord.cells; ++c) {
      rows[k].push_back(std::string(1, static_cast<char>('a' + c % 26)) +
                        static_cast<char>('0' + k));
    }
  }
  const ConcatMonoid cat;
  for (const EngineChoice engine : {EngineChoice::kJumping, EngineChoice::kBlocked}) {
    PlanOptions options;
    options.engine = engine;
    expect_wide_matches_scalar(cat, compile_plan(ord, options), rows);
  }
}

TEST(ExecuteWideTest, SingleLaneBatchTakesTheGatherPath) {
  // K = 1 with a dense stride is the whole-round SIMD gather shape; it must
  // agree with the scalar executor exactly like any other lane count.
  support::SplitMix64 rng(31);
  const auto ord = testing::random_ordinary_system(500, 800, rng, 0.9);
  PlanOptions options;
  options.engine = EngineChoice::kJumping;
  expect_wide_matches_scalar(AddMonoid<std::uint64_t>{}, compile_plan(ord, options),
                             numeric_rows(ord.cells, 1));
}

TEST(ExecuteWideTest, ExecuteManyVariantsAgree) {
  support::SplitMix64 rng(9);
  const auto ord = testing::random_ordinary_system(120, 200, rng, 0.85);
  const ModMulMonoid op(1'000'000'007ull);
  const Plan plan = compile_plan(ord);
  const auto rows = numeric_rows(ord.cells, 4);

  ExecOptions wide;
  wide.variant = ExecVariant::kWide;
  ExecOptions scalar;
  scalar.variant = ExecVariant::kScalar;

  // Rows-of-values API: all three variants, same bytes.
  const auto via_auto = execute_many(plan, op, rows);
  const auto via_wide = execute_many(plan, op, rows, wide);
  const auto via_scalar = execute_many(plan, op, rows, scalar);
  EXPECT_EQ(via_auto, via_wide);
  EXPECT_EQ(via_auto, via_scalar);

  // SoA API: kScalar per-lane replay equals the wide default.
  const auto batch_wide =
      execute_many(plan, op, BatchView<std::uint64_t>::from_rows(rows, plan.cells));
  const auto batch_scalar = execute_many(
      plan, op, BatchView<std::uint64_t>::from_rows(rows, plan.cells), scalar);
  EXPECT_EQ(batch_wide.to_rows(), batch_scalar.to_rows());
  EXPECT_EQ(batch_wide.to_rows(), via_auto);

  EXPECT_STREQ(to_string(ExecVariant::kAuto), "auto");
  EXPECT_STREQ(to_string(ExecVariant::kScalar), "scalar");
  EXPECT_STREQ(to_string(ExecVariant::kWide), "wide");
}

TEST(ExecuteWideTest, SolverForwardsBatchApis) {
  OrdinaryIrSystem chain;
  chain.cells = 65;
  for (std::size_t i = 0; i + 1 < chain.cells; ++i) {
    chain.f.push_back(i);
    chain.g.push_back(i + 1);
  }
  Solver solver;
  const auto plan = solver.compile(chain);
  const AddMonoid<std::uint64_t> add;
  const auto rows = numeric_rows(chain.cells, 3);
  const auto direct = execute_wide(*plan, add, BatchView<std::uint64_t>::from_rows(
                                                   rows, plan->cells));
  const auto via_solver = solver.execute_wide(
      *plan, add, BatchView<std::uint64_t>::from_rows(rows, plan->cells));
  EXPECT_EQ(direct.to_rows(), via_solver.to_rows());
  const auto via_many = solver.execute_many(
      *plan, add, BatchView<std::uint64_t>::from_rows(rows, plan->cells));
  EXPECT_EQ(direct.to_rows(), via_many.to_rows());
}

TEST(ExecuteWideTest, RootCellWrittenByALaterTraceSeedsInInitialOrder) {
  // Cell 2 is iteration 0's chain root (no writer BEFORE it) but is written
  // by iteration 1.  The in-place cell-space seed must fold the still-initial
  // root row before the later trace's fold lands on that cell — the ordering
  // contract documented in execute_wide.hpp.
  OrdinaryIrSystem sys;
  sys.cells = 3;
  sys.f = {2, 0};
  sys.g = {1, 2};
  const AddMonoid<std::uint64_t> add;
  for (const EngineChoice engine : {EngineChoice::kJumping, EngineChoice::kBlocked}) {
    PlanOptions options;
    options.engine = engine;
    expect_wide_matches_scalar(add, compile_plan(sys, options),
                               numeric_rows(sys.cells, 3));
  }
  // Scan variant of the same hazard: a genuine chain (trace 1 reads trace
  // 0's write) whose head cell 2 is overwritten by the later trace 1.  The
  // scan sweep must consume the head's initial value before that write.
  OrdinaryIrSystem chain = sys;
  chain.g = {0, 2};
  const Plan scan_plan = compile_plan(chain);
  ASSERT_EQ(scan_plan.engine, PlanEngine::kScan);
  expect_wide_matches_scalar(add, scan_plan, numeric_rows(chain.cells, 3));
}

TEST(ExecuteWideTest, BatchCellCountMismatchThrows) {
  support::SplitMix64 rng(5);
  const auto ord = testing::random_ordinary_system(20, 30, rng, 0.8);
  const Plan plan = compile_plan(ord);
  BatchView<std::uint64_t> wrong(plan.cells + 1, 2);
  EXPECT_THROW(execute_wide(plan, AddMonoid<std::uint64_t>{}, std::move(wrong)),
               std::exception);
}

// ---------------------------------------------------------------------------
// The SIMD dispatch seam (simd.hpp).
// ---------------------------------------------------------------------------

TEST(SimdDispatchTest, KernelsMatchScalarReferencesBitForBit) {
  // Whatever mode the process resolved to, the dispatched kernels must be
  // bit-identical to the portable references — including the ragged tail.
  for (const std::size_t count : {0u, 1u, 3u, 4u, 7u, 64u, 1001u}) {
    std::vector<std::uint64_t> a(count), b(count);
    for (std::size_t i = 0; i < count; ++i) {
      a[i] = 0x9e3779b97f4a7c15ull * (i + 1);  // exercises u64 wraparound
      b[i] = ~a[i] * 31;
    }
    std::vector<std::uint64_t> got(count), want(count);
    simd::add_rows_u64(a.data(), b.data(), got.data(), count);
    simd::detail::add_rows_u64_scalar(a.data(), b.data(), want.data(), count);
    EXPECT_EQ(got, want) << "count " << count;

    std::vector<std::uint32_t> dst(count), src(count);
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = static_cast<std::uint32_t>((i * 7) % count);
      src[i] = static_cast<std::uint32_t>((i * 13 + 5) % count);
    }
    if (count == 0) continue;
    simd::gather_add_u64(a.data(), dst.data(), src.data(), got.data(), count);
    simd::detail::gather_add_u64_scalar(a.data(), dst.data(), src.data(),
                                        want.data(), count);
    EXPECT_EQ(got, want) << "count " << count;
  }
}

TEST(SimdDispatchTest, JumpRoundKernelMatchesScalarReferenceBitForBit) {
  // One synthetic round over strided rows: the dispatched whole-round kernel
  // and the portable reference must produce identical value arrays,
  // including when a move's src row is another move's dst (the
  // double-buffered read-before-write case the two-phase contract exists
  // for).
  const std::size_t rows = 64, stride = 7, lanes = 5, width = 48;
  std::vector<std::uint64_t> got(rows * stride), want(rows * stride);
  for (std::size_t i = 0; i < got.size(); ++i) {
    got[i] = want[i] = 0x9e3779b97f4a7c15ull * (i + 3);
  }
  std::vector<std::uint32_t> dst(width), src(width);
  for (std::size_t k = 0; k < width; ++k) {
    dst[k] = static_cast<std::uint32_t>(k);           // distinct writes
    src[k] = static_cast<std::uint32_t>((k + 1) % rows);  // overlaps dsts
  }
  std::vector<std::uint64_t> scratch_a(width * lanes), scratch_b(width * lanes);
  simd::jump_round_u64(got.data(), stride, dst.data(), src.data(),
                       scratch_a.data(), width, lanes);
  simd::detail::jump_round_u64_scalar(want.data(), stride, dst.data(), src.data(),
                                      scratch_b.data(), width, lanes);
  EXPECT_EQ(got, want);
}

TEST(SimdDispatchTest, InPlaceRowAddIsSafe) {
  std::vector<std::uint64_t> a(37), b(37);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = i * 11;
    b[i] = i + 1000;
  }
  auto expect = a;
  for (std::size_t i = 0; i < a.size(); ++i) expect[i] += b[i];
  simd::add_rows_u64(a.data(), b.data(), a.data(), a.size());  // out aliases a
  EXPECT_EQ(a, expect);
}

TEST(SimdDispatchTest, ActiveModeReflectsBuildCpuAndEnvironment) {
  const simd::Mode mode = simd::active_mode();
  EXPECT_EQ(mode, simd::active_mode());  // stable for the process lifetime
  EXPECT_TRUE(std::string(simd::to_string(mode)) == "scalar" ||
              std::string(simd::to_string(mode)) == "avx2");
  if (!simd::compiled_with_avx2()) {
    // IR_SIMD=OFF builds can never pick the vector path.
    EXPECT_EQ(mode, simd::Mode::kScalar);
  } else if (std::getenv("IR_SIMD") == nullptr) {
    // Unmasked: dispatch follows the CPU probe exactly.
    const simd::Mode want = __builtin_cpu_supports("avx2") != 0
                                ? simd::Mode::kAvx2
                                : simd::Mode::kScalar;
    EXPECT_EQ(mode, want);
  }
}

}  // namespace
}  // namespace ir::core
