#include "parallel/parallel_for.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace ir::parallel {

std::vector<Block> partition_blocks(std::size_t n, std::size_t parts) {
  IR_REQUIRE(parts >= 1, "partition needs at least one part");
  std::vector<Block> blocks;
  if (n == 0) return blocks;
  const std::size_t used = std::min(parts, n);
  const std::size_t base = n / used;
  const std::size_t extra = n % used;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < used; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    blocks.push_back(Block{begin, begin + len, w});
    begin += len;
  }
  IR_INVARIANT(begin == n, "blocks must cover the range exactly");
  return blocks;
}

void parallel_for_blocks(ThreadPool& pool, std::size_t n, std::size_t max_blocks,
                         const std::function<void(const Block&)>& body) {
  IR_REQUIRE(max_blocks >= 1, "worker cap must be at least one");
  IR_SPAN("parallel.for");
  IR_COUNTER_ADD("parallel.for_calls", 1);
  IR_COUNTER_ADD("parallel.for_items", n);
  const auto blocks = partition_blocks(n, max_blocks);
  if (blocks.size() <= 1) {
    for (const auto& block : blocks) body(block);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(blocks.size());
  for (const auto& block : blocks) {
    tasks.emplace_back([&body, block] { body(block); });
  }
  pool.run_batch(std::move(tasks));
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  parallel_for_blocks(pool, n, pool.size(), [&body](const Block& block) {
    for (std::size_t i = block.begin; i < block.end; ++i) body(i);
  });
}

}  // namespace ir::parallel
