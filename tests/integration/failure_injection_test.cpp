// Failure injection: operators that throw mid-computation.  Solvers must
// propagate the exception (including out of thread-pool slices) and leave
// the runtime reusable afterwards.
#include <gtest/gtest.h>

#include <atomic>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "testing/random_systems.hpp"

namespace ir {
namespace {

/// Adds like AddMonoid but throws on the k-th combine() (global count).
struct FusedMonoid {
  using Value = std::uint64_t;
  static constexpr bool is_commutative = true;

  std::atomic<std::size_t>* counter;
  std::size_t fuse;

  Value combine(Value a, Value b) const {
    if (counter->fetch_add(1) + 1 == fuse) throw std::runtime_error("fuse blown");
    return a + b;
  }
  Value pow(Value a, const support::BigUint& k) const {
    return algebra::AddMonoid<std::uint64_t>{}.pow(a, k);
  }
};

/// One solve through a freshly compiled plan for a forced engine.
template <typename Op, typename System>
std::vector<typename Op::Value> forced(core::EngineChoice engine, const Op& op,
                                       const System& sys, std::vector<typename Op::Value> init,
                                       const core::ExecOptions& exec = {}) {
  const core::PlanOptions options{.engine = engine, .blocks = 8, .prune_dead = false};
  return core::execute_plan(core::compile_plan(sys, options), op, std::move(init), exec);
}

class FailureInjectionTest : public ::testing::Test {
 protected:
  std::atomic<std::size_t> counter{0};
  support::SplitMix64 rng{171};
  core::OrdinaryIrSystem sys = testing::random_ordinary_system(400, 600, rng, 0.9);
  std::vector<std::uint64_t> init = testing::random_initial_u64(600, rng);

  FusedMonoid fused(std::size_t fuse) {
    counter = 0;
    return FusedMonoid{&counter, fuse};
  }
};

TEST_F(FailureInjectionTest, SequentialPropagates) {
  EXPECT_THROW((void)core::ordinary_ir_sequential(fused(10), sys, init),
               std::runtime_error);
}

TEST_F(FailureInjectionTest, JumpingPropagatesAndPoolSurvives) {
  parallel::ThreadPool pool(3);
  const core::ExecOptions exec{.pool = &pool};
  // The root seeds fold on the calling thread; the fuse lies past them, so
  // the throw comes from inside a pool slice of the first round.
  const std::size_t fuse = 50;
  const core::Plan plan = core::compile_plan(sys, {.engine = core::EngineChoice::kJumping});
  ASSERT_LT(plan.jump.seed_ops, fuse);
  EXPECT_THROW((void)core::execute_plan(plan, fused(fuse), init, exec), std::runtime_error);
  // The pool must remain usable: run the real solve afterwards.
  const auto op = algebra::AddMonoid<std::uint64_t>{};
  EXPECT_EQ(forced(core::EngineChoice::kJumping, op, sys, init, exec),
            core::ordinary_ir_sequential(op, sys, init));
}

TEST_F(FailureInjectionTest, BlockedPropagates) {
  EXPECT_THROW((void)forced(core::EngineChoice::kBlocked, fused(50), sys, init),
               std::runtime_error);
}

TEST_F(FailureInjectionTest, GirEvaluationPropagates) {
  const auto gir = core::GeneralIrSystem::from_ordinary(sys);
  EXPECT_THROW((void)forced(core::EngineChoice::kGeneralCap, fused(20), gir, init),
               std::runtime_error);
}

TEST_F(FailureInjectionTest, LateFuseMeansSuccess) {
  // A fuse beyond the total combine count must not fire.
  const auto op = fused(1u << 30);
  EXPECT_EQ(forced(core::EngineChoice::kJumping, op, sys, init),
            core::ordinary_ir_sequential(algebra::AddMonoid<std::uint64_t>{}, sys, init));
}

}  // namespace
}  // namespace ir
