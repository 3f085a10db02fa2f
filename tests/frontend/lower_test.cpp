#include "frontend/lower.hpp"

#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/classify.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"
#include "frontend/parser.hpp"

namespace ir::frontend {
namespace {

TEST(LowerTest, ChainLowersToExpectedMaps) {
  const auto program = parse_program(R"(
array A[5]
for i = 1 .. 4 {
  A[i] = A[i-1] . A[i]
}
)");
  const auto lowered = lower(program);
  EXPECT_EQ(lowered.system.cells, 5u);
  EXPECT_EQ(lowered.system.f, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(lowered.system.g, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(lowered.system.h, lowered.system.g);
  EXPECT_EQ(core::classify(lowered.system), core::LoopClass::kLinearRecurrence);
}

TEST(LowerTest, TwoDimensionalFlatteningIsRowMajor) {
  const auto program = parse_program(R"(
array X[4][3]
array Y[4][3]
for r = 0 .. 3 {
  for c = 0 .. 2 {
    X[r][c] = Y[r][c] . X[r][c]
  }
}
)");
  const auto lowered = lower(program);
  EXPECT_EQ(lowered.system.cells, 24u);
  // Y's block follows X's 12 cells.
  EXPECT_EQ(lowered.array_base, (std::vector<std::size_t>{0, 12}));
  // Equation for (r=1, c=2): target = X flat 1*3+2 = 5, lhs = Y base 12 + 5.
  const std::size_t eq = 1 * 3 + 2;
  EXPECT_EQ(lowered.system.g[eq], 5u);
  EXPECT_EQ(lowered.system.f[eq], 17u);
  // flat_cell agrees.
  const std::int64_t idx[] = {1, 2};
  EXPECT_EQ(lowered.flat_cell(program, 0, idx), 5u);
  EXPECT_EQ(lowered.flat_cell(program, 1, idx), 17u);
}

TEST(LowerTest, EquationMetadataRecorded) {
  const auto program = parse_program(R"(
array A[10]
array B[10]
for i = 1 .. 3 {
  A[i] = A[i-1] . A[i]
  B[i] = A[i] . B[i]
}
)");
  const auto lowered = lower(program);
  ASSERT_EQ(lowered.system.iterations(), 6u);
  EXPECT_EQ(lowered.equation_statement,
            (std::vector<std::size_t>{0, 1, 0, 1, 0, 1}));
  ASSERT_EQ(lowered.vars_per_equation, 1u);
  EXPECT_EQ(lowered.equation_vars, (std::vector<std::int64_t>{1, 1, 2, 2, 3, 3}));
}

TEST(LowerTest, TriangularBounds) {
  const auto program = parse_program(R"(
array A[40]
for i = 0 .. 3 {
  for k = 0 .. i {
    A[10*i + k + 1] = A[10*i + k] . A[10*i + k + 1]
  }
}
)");
  const auto lowered = lower(program);
  // 1 + 2 + 3 + 4 iterations.
  EXPECT_EQ(lowered.system.iterations(), 10u);
}

TEST(LowerTest, OutOfBoundsSubscriptDiagnosed) {
  const auto program = parse_program(R"(
array A[4]
for i = 0 .. 4 {
  A[i] = A[i] . A[i]
}
)");
  try {
    (void)lower(program);
    FAIL() << "expected throw";
  } catch (const support::ContractViolation& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("'A'"), std::string::npos);
    EXPECT_NE(what.find("i=4"), std::string::npos);
  }
}

TEST(LowerTest, EquationCapEnforced) {
  const auto program = parse_program(R"(
array A[4]
for i = 0 .. 3 {
  A[i] = A[i] . A[i]
}
)");
  LowerOptions options;
  options.max_equations = 2;
  EXPECT_THROW((void)lower(program, options), support::ContractViolation);
}

TEST(LowerTest, Loop23FragmentEndToEnd) {
  // Parse -> lower -> classify -> solve; compare against direct sequential
  // execution of the lowered system (the library's ground truth).
  const auto program = parse_program(R"(
array X[103][7]
for j = 1 .. 6 {
  for k = 1 .. 100 {
    X[k][j] = X[k-1][j] . X[k][j]
  }
}
)");
  const auto lowered = lower(program);
  // Per-column consecutive chains: semantically linear, ordinary-IR solvable.
  EXPECT_EQ(core::classify(lowered.system), core::LoopClass::kLinearRecurrence);

  algebra::ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(lowered.system.cells);
  for (std::size_t c = 0; c < init.size(); ++c) init[c] = 1 + c % 89;
  EXPECT_EQ(core::execute_plan(core::compile_plan(lowered.system), op, init),
            core::general_ir_sequential(op, lowered.system, init));
}

TEST(LowerTest, FibonacciLowersToGeneral) {
  const auto program = parse_program(R"(
array A[30]
for i = 2 .. 29 {
  A[i] = A[i-1] . A[i-2]
}
)");
  const auto lowered = lower(program);
  EXPECT_EQ(core::classify(lowered.system), core::LoopClass::kGeneralIndexed);
  // And the exponents are Fibonacci numbers — tying the frontend to the
  // GIR machinery end to end.
  const auto exponents = core::general_ir_exponents(lowered.system);
  support::BigUint a(1), b(1);
  for (int i = 0; i < 27; ++i) {
    support::BigUint next = a + b;
    a = b;
    b = next;
  }
  EXPECT_EQ(exponents.back().back().second, b);
}

}  // namespace
}  // namespace ir::frontend
