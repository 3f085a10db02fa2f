// Segmented inclusive scan.
//
// Multi-chain recurrences (the Livermore-23 fragment is six independent
// column chains) are classically solved with a SEGMENTED scan: a prefix scan
// that restarts at marked segment heads.  The standard trick makes the
// segmented operator associative by pairing every value with a "starts a
// segment" flag:
//
//     (fa, a) ⊕ (fb, b) = (fa | fb,  fb ? b : a ⊙ b)
//
// so any unsegmented scan algorithm (here Kogge-Stone) solves the segmented
// problem.  Provided as the baseline the Ordinary-IR solver subsumes: IR
// needs no flags — segment structure is implicit in the index maps — and it
// also covers chains that are not contiguous in memory.
#pragma once

#include <cstdint>
#include <vector>

#include "algebra/concepts.hpp"
#include "scan/prefix_scan.hpp"

namespace ir::scan {

namespace detail {

template <typename Op>
struct SegmentedOp {
  using Value = std::pair<bool, typename Op::Value>;
  static constexpr bool is_commutative = false;
  Op inner;

  Value combine(const Value& a, const Value& b) const {
    return {a.first || b.first, b.first ? b.second : inner.combine(a.second, b.second)};
  }
};

}  // namespace detail

/// In-place segmented inclusive scan: within each segment (marked by
/// head_flags[i] == true at its first element; element 0 is implicitly a
/// head), data[i] becomes the ⊙-prefix of its segment up to i.
template <algebra::BinaryOperation Op>
void segmented_inclusive_scan(const Op& op, std::vector<typename Op::Value>& data,
                              const std::vector<bool>& head_flags,
                              parallel::ThreadPool* pool = nullptr) {
  IR_REQUIRE(head_flags.size() == data.size(), "one head flag per element");
  using Pair = typename detail::SegmentedOp<Op>::Value;
  std::vector<Pair> pairs(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    pairs[i] = {i == 0 || head_flags[i], std::move(data[i])};
  }
  inclusive_scan_kogge_stone(detail::SegmentedOp<Op>{op}, pairs, pool);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::move(pairs[i].second);
}

}  // namespace ir::scan
