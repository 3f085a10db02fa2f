// Problem descriptions for indexed recurrence (IR) equation systems.
//
// A set of IR equations over an initialized array A[0..m-1] is the loop
//
//     for i = 0 .. n-1:  A[g(i)] := op(A[f(i)], A[h(i)])
//
// where the index maps f, g, h : {0..n-1} -> {0..m-1} are known up front and
// do not depend on A (the paper's defining restriction — it is what makes the
// dependence structure static and the loop parallelizable).
//
// Index maps are stored extensionally as vectors: entry i is the cell the map
// sends iteration i to.  This matches how a parallelizing compiler would
// materialize the maps after induction-variable analysis, and makes arbitrary
// (gather/scatter) subscripts first-class.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "support/contract.hpp"

namespace ir::core {

/// Sentinel for "no predecessor" in iteration-chain arrays.
inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// An *ordinary* IR system: h == g and g is injective, i.e. the loop
///     for i: A[g(i)] := op(A[f(i)], A[g(i)])
/// where every cell is assigned at most once.  This is the class solved by
/// the paper's O(log n)-round greedy algorithm with O(n) processors
/// (Section 2), and `op` may be non-commutative.
struct OrdinaryIrSystem {
  std::size_t cells = 0;        ///< m: length of the data array
  std::vector<std::size_t> f;   ///< read map, size n
  std::vector<std::size_t> g;   ///< write map, size n, injective

  /// n: number of equations / loop iterations.
  [[nodiscard]] std::size_t iterations() const noexcept { return g.size(); }

  /// Throws ContractViolation unless sizes agree, all indices are in
  /// [0, cells), and g is injective.
  void validate() const;

  /// validate(), returning the array its injectivity check scatters:
  /// writer[c] = the iteration that writes cell c, or kNone.  compile_plan
  /// gathers the pred forest from it.
  [[nodiscard]] std::vector<std::size_t> validated_writers() const;
};

/// A *general* IR (GIR) system: independent f, g, h, i.e. the loop
///     for i: A[g(i)] := op(A[f(i)], A[h(i)])
/// Traces are binary trees, so `op` must be commutative, and trace lengths
/// can be exponential, so evaluation treats powers as atomic (Section 4).
/// g need not be injective (the repeated-write case is the "non-distinct g"
/// extension the paper defers to its full version).
struct GeneralIrSystem {
  std::size_t cells = 0;
  std::vector<std::size_t> f;
  std::vector<std::size_t> g;
  std::vector<std::size_t> h;

  [[nodiscard]] std::size_t iterations() const noexcept { return g.size(); }

  /// Throws ContractViolation unless sizes agree and all indices are in range.
  void validate() const;

  /// View an ordinary system as the GIR it also is (h := g).
  static GeneralIrSystem from_ordinary(const OrdinaryIrSystem& sys) {
    return GeneralIrSystem{sys.cells, sys.f, sys.g, sys.g};
  }
};

/// last_writer[i] = the latest iteration j < i with g[j] == read[i], or kNone
/// if no earlier iteration writes the cell read[i] reads.  This is the
/// "j_t < j_{t-1} with g(j_t) = f(j_{t-1})" chain of the paper's Lemma 1,
/// materialized for all iterations in one O(n) sweep.
std::vector<std::size_t> last_writer_before(const std::vector<std::size_t>& write_map,
                                            const std::vector<std::size_t>& read_map,
                                            std::size_t cells);

/// final_writer[x] = the last iteration writing cell x, or kNone if x is
/// never written.  The solved array is assembled from these.
std::vector<std::size_t> final_writer(const std::vector<std::size_t>& write_map,
                                      std::size_t cells);

}  // namespace ir::core
