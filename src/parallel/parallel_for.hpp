// Blocked fork/join rounds over a thread pool.
//
// One round over [0, n) is split into contiguous slices, one pool task per
// slice, and joined before the call returns.  That join is what gives the
// paper's synchronous-step structure on a real machine: a caller that needs
// round t globally complete before round t+1 (pointer jumping, CAP closure)
// simply issues one call per phase.
//   * parallel_for_blocks — the block-level primitive: body(block) once per
//                           slice, at most `max_blocks` slices.  This is the
//                           paper's "fork only up to P processes" schedule.
//   * parallel_for        — the per-item wrapper: body(i) for every i, one
//                           slice per pool thread.
//
// Double buffering replaces the PRAM's buffered-write semantics: callers
// read round t's input array and write round t's output array, then swap.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace ir::parallel {

/// Inclusive-exclusive index block [begin, end) handed to each worker.
struct Block {
  std::size_t begin;
  std::size_t end;
  std::size_t worker;  ///< which of the P logical workers runs this block
  friend bool operator==(const Block&, const Block&) = default;
};

/// Split [0, n) into at most `parts` contiguous blocks of near-equal size.
std::vector<Block> partition_blocks(std::size_t n, std::size_t parts);

/// Run body(block) once per block of partition_blocks(n, max_blocks): one
/// pool task per block, joined before returning (a single block runs on the
/// caller).  Task exceptions propagate as ThreadPool::run_batch rethrows them.
void parallel_for_blocks(ThreadPool& pool, std::size_t n, std::size_t max_blocks,
                         const std::function<void(const Block&)>& body);

/// Run body(i) for all i in [0, n) using at most `pool.size()` workers.
/// `body` must be safe to invoke concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace ir::parallel
