#include "scan/linear_recurrence.hpp"

#include "algebra/moebius.hpp"
#include "scan/prefix_scan.hpp"
#include "support/contract.hpp"

namespace ir::scan {

std::vector<double> linear_recurrence_sequential(std::span<const double> a,
                                                 std::span<const double> b, double x0) {
  IR_REQUIRE(a.size() == b.size(), "coefficient arrays must have equal length");
  std::vector<double> x(a.size());
  double prev = x0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    prev = a[i] * prev + b[i];
    x[i] = prev;
  }
  return x;
}

std::vector<double> linear_recurrence_scan(std::span<const double> a,
                                           std::span<const double> b, double x0,
                                           parallel::ThreadPool* pool) {
  IR_REQUIRE(a.size() == b.size(), "coefficient arrays must have equal length");
  std::vector<algebra::AffineMap> maps(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) maps[i] = algebra::AffineMap{a[i], b[i]};
  inclusive_scan_kogge_stone(algebra::AffineCompose{}, maps, pool);
  std::vector<double> x(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) x[i] = maps[i].apply(x0);
  return x;
}

}  // namespace ir::scan
