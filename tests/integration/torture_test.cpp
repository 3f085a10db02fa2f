// Adversarial structures: index-map shapes chosen to break naive solvers —
// self-reads, total aliasing, permutation write maps, wide fans, chains at
// the size extremes.  Every route must survive and agree with sequential
// execution.
#include <gtest/gtest.h>

#include "algebra/monoids.hpp"
#include "core/general_ir.hpp"
#include "core/ordinary_ir.hpp"
#include "core/plan.hpp"
#include "testing/random_systems.hpp"

namespace ir {
namespace {

using algebra::AddMonoid;
using algebra::ModMulMonoid;
using core::GeneralIrSystem;
using core::OrdinaryIrSystem;

/// One solve through a freshly compiled plan for `engine` (CAP unpruned).
template <typename Op, typename System>
std::vector<typename Op::Value> forced(core::EngineChoice engine, const Op& op,
                                       const System& sys,
                                       const std::vector<typename Op::Value>& init,
                                       const core::ExecOptions& exec = {}) {
  const core::PlanOptions options{.engine = engine, .blocks = 5, .prune_dead = false};
  return core::execute_plan(core::compile_plan(sys, options), op, init, exec);
}

/// Check every ordinary route against the sequential ground truth.
void check_ordinary_all_routes(const OrdinaryIrSystem& sys,
                               const std::vector<std::uint64_t>& init) {
  const auto op = AddMonoid<std::uint64_t>{};
  const auto expect = core::ordinary_ir_sequential(op, sys, init);
  EXPECT_EQ(forced(core::EngineChoice::kJumping, op, sys, init), expect);
  EXPECT_EQ(forced(core::EngineChoice::kBlocked, op, sys, init), expect);
  EXPECT_EQ(forced(core::EngineChoice::kAuto, op, sys, init), expect);
  parallel::ThreadPool pool(3);
  EXPECT_EQ(forced(core::EngineChoice::kJumping, op, sys, init, {.pool = &pool}), expect);
}

TEST(TortureTest, SelfReadEquations) {
  // f(i) == g(i): A[c] = op(A[c], A[c]) per equation — every trace is the
  // doubled initial value of its own cell.
  OrdinaryIrSystem sys{6, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}};
  check_ordinary_all_routes(sys, {1, 2, 3, 4, 5, 6});
}

TEST(TortureTest, ReversedChain) {
  // Writes run right-to-left while reads point left: pred never fires.
  const std::size_t n = 64;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(n - i);
    sys.g.push_back(n - i - 1);
  }
  std::vector<std::uint64_t> init(n + 1, 3);
  check_ordinary_all_routes(sys, init);
}

TEST(TortureTest, PermutationShuffleChains) {
  // g is a random permutation of all cells; f follows a rotated copy so
  // chains weave through the whole array.
  support::SplitMix64 rng(161);
  const std::size_t n = 512;
  const auto perm = support::random_permutation(n, rng);
  OrdinaryIrSystem sys;
  sys.cells = n;
  for (std::size_t i = 0; i < n; ++i) {
    sys.g.push_back(perm[i]);
    sys.f.push_back(perm[(i + n - 1) % n]);  // mostly reads the previous write
  }
  std::vector<std::uint64_t> init(n);
  for (auto& v : init) v = rng.below(100);
  check_ordinary_all_routes(sys, init);
}

TEST(TortureTest, WideFanFromOneCell) {
  // Every equation reads the same hot cell written by equation 0.
  const std::size_t n = 256;
  OrdinaryIrSystem sys;
  sys.cells = n + 2;
  sys.f.push_back(n + 1);
  sys.g.push_back(0);
  for (std::size_t i = 1; i < n; ++i) {
    sys.f.push_back(0);  // all depend on equation 0
    sys.g.push_back(i);
  }
  std::vector<std::uint64_t> init(n + 2, 7);
  check_ordinary_all_routes(sys, init);
}

TEST(TortureTest, GirTotalAliasing) {
  // Every equation reads AND writes the same single cell.
  const std::size_t n = 200;
  GeneralIrSystem sys;
  sys.cells = 2;
  sys.f.assign(n, 0);
  sys.g.assign(n, 0);
  sys.h.assign(n, 0);
  ModMulMonoid op(1'000'000'007ull);
  const std::vector<std::uint64_t> init{3, 1};
  // A[0] squares every iteration: 3^(2^200) mod p — BigUint exponents.
  const auto expect = core::general_ir_sequential(op, sys, init);
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, sys, init), expect);
  EXPECT_EQ(core::execute_plan(core::compile_plan(sys), op, init), expect);
}

TEST(TortureTest, GirPingPong) {
  // Two cells feeding each other alternately.
  const std::size_t n = 120;
  GeneralIrSystem sys;
  sys.cells = 2;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = i % 2, b = 1 - a;
    sys.f.push_back(b);
    sys.g.push_back(a);
    sys.h.push_back(a);
  }
  ModMulMonoid op(999999937ull);
  const std::vector<std::uint64_t> init{2, 5};
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, sys, init),
            core::general_ir_sequential(op, sys, init));
}

TEST(TortureTest, GirSameCellBothOperands) {
  // f == h: A[g] = op(A[x], A[x]) — parallel edges from the start.
  support::SplitMix64 rng(162);
  GeneralIrSystem sys;
  sys.cells = 40;
  for (std::size_t i = 0; i < 100; ++i) {
    const std::size_t x = rng.below(40);
    sys.f.push_back(x);
    sys.h.push_back(x);
    sys.g.push_back(rng.below(40));
  }
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(40);
  for (auto& v : init) v = 1 + rng.below(1'000'000'006ull);
  EXPECT_EQ(forced(core::EngineChoice::kGeneralCap, op, sys, init),
            core::general_ir_sequential(op, sys, init));
}

TEST(TortureTest, SingleEquationAndSingleCell) {
  OrdinaryIrSystem sys{1, {0}, {0}};
  check_ordinary_all_routes(sys, {5});
}

TEST(TortureTest, LongChainAllSolvers) {
  const std::size_t n = 30000;
  OrdinaryIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    sys.f.push_back(i);
    sys.g.push_back(i + 1);
  }
  std::vector<std::uint64_t> init(n + 1, 1);
  check_ordinary_all_routes(sys, init);
}

TEST(TortureTest, GirDiamondLattice) {
  // Diamond dependencies: A[i] = op(A[i-1], A[i-1]) — exponential exponents
  // through a single parent (the double-chain CAP example as a full solve).
  const std::size_t n = 150;
  GeneralIrSystem sys;
  sys.cells = n + 1;
  for (std::size_t i = 1; i <= n; ++i) {
    sys.f.push_back(i - 1);
    sys.g.push_back(i);
    sys.h.push_back(i - 1);
  }
  ModMulMonoid op(1'000'000'007ull);
  std::vector<std::uint64_t> init(n + 1, 1);
  init[0] = 7;
  const auto out = forced(core::EngineChoice::kGeneralCap, op, sys, init);
  EXPECT_EQ(out, core::general_ir_sequential(op, sys, init));
  // Closed form: A[n] = 7^(2^n) mod p.
  EXPECT_EQ(out[n],
            algebra::pow_mod(7, support::BigUint::pow(support::BigUint(2), n),
                             1'000'000'007ull));
}

}  // namespace
}  // namespace ir
