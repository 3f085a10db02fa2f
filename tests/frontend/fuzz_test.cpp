// Frontend fuzzing: random rectangular loop nests with random affine
// subscripts, pushed through print -> parse -> lower -> route -> solve and
// compared against direct sequential execution of the lowered system.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "support/rng.hpp"

namespace ir::frontend {
namespace {

/// A random 1-3 deep rectangular nest over 1-2 arrays, subscripts built so
/// they provably stay in range: each subscript is  var + offset  with the
/// array extent padded to cover offset extremes.
LoopProgram random_program(support::SplitMix64& rng) {
  const std::size_t depth = 1 + rng.below(3);
  const std::size_t arrays = 1 + rng.below(2);
  const std::size_t trip = 3 + rng.below(6);  // every loop runs `trip` iterations
  const std::int64_t pad = 4;

  LoopProgram program;
  for (std::size_t a = 0; a < arrays; ++a) {
    ArrayDecl decl;
    decl.name = std::string(1, char('A' + a));
    decl.extents.assign(depth, trip + 2 * static_cast<std::size_t>(pad));
    program.arrays.push_back(std::move(decl));
  }
  const char* var_names[] = {"i", "j", "k"};
  for (std::size_t d = 0; d < depth; ++d) {
    Loop loop;
    loop.var = var_names[d];
    loop.lower = AffineExpr::constant(pad);
    loop.upper = AffineExpr::constant(pad + static_cast<std::int64_t>(trip) - 1);
    program.loops.push_back(std::move(loop));
  }
  auto random_ref = [&]() {
    ArrayRef ref;
    ref.array = rng.below(arrays);
    for (std::size_t d = 0; d < depth; ++d) {
      const auto offset = static_cast<std::int64_t>(rng.between(0, 6)) - 3;
      ref.subscripts.push_back(AffineExpr::variable(d) + AffineExpr::constant(offset));
    }
    return ref;
  };
  const std::size_t statements = 1 + rng.below(3);
  for (std::size_t s = 0; s < statements; ++s) {
    program.body.push_back(Statement{random_ref(), random_ref(), random_ref()});
  }
  program.validate();
  return program;
}

class FrontendFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontendFuzzTest, PrintParseLowerSolveAgree) {
  support::SplitMix64 rng(GetParam());
  algebra::ModMulMonoid op(1'000'000'007ull);
  for (int trial = 0; trial < 15; ++trial) {
    const auto program = random_program(rng);

    // Print/parse round trip must preserve the program.
    const auto reparsed = parse_program(program.to_string());
    EXPECT_EQ(reparsed.to_string(), program.to_string());

    const auto lowered = lower(program);
    const auto relowered = lower(reparsed);
    EXPECT_EQ(lowered.system.f, relowered.system.f);
    EXPECT_EQ(lowered.system.g, relowered.system.g);
    EXPECT_EQ(lowered.system.h, relowered.system.h);

    // The router must agree with sequential execution whatever class the
    // random subscripts produced.
    std::vector<std::uint64_t> init(lowered.system.cells);
    for (std::size_t c = 0; c < init.size(); ++c) init[c] = 1 + (c * 37 + 11) % 1000;
    EXPECT_EQ(core::execute_plan(core::compile_plan(lowered.system), op, init),
              core::general_ir_sequential(op, lowered.system, init))
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendFuzzTest,
                         ::testing::Values(1u, 7u, 42u, 1997u, 31337u));

}  // namespace
}  // namespace ir::frontend
