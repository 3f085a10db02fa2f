#include "core/ir_problem.hpp"

#include <string>

namespace ir::core {

namespace {

void check_map(const std::vector<std::size_t>& map, std::size_t cells, const char* name) {
  for (std::size_t i = 0; i < map.size(); ++i) {
    IR_REQUIRE(map[i] < cells, std::string(name) + "(" + std::to_string(i) + ") = " +
                                   std::to_string(map[i]) + " is out of range [0, " +
                                   std::to_string(cells) + ")");
  }
}

}  // namespace

void OrdinaryIrSystem::validate() const { (void)validated_writers(); }

std::vector<std::size_t> OrdinaryIrSystem::validated_writers() const {
  IR_REQUIRE(f.size() == g.size(), "index maps f and g must have equal length");
  check_map(f, cells, "f");
  check_map(g, cells, "g");
  std::vector<std::size_t> writer(cells, kNone);
  for (std::size_t i = 0; i < g.size(); ++i) {
    IR_REQUIRE(writer[g[i]] == kNone,
               "g must be injective (ordinary IR): iterations " +
                   std::to_string(writer[g[i]]) + " and " + std::to_string(i) +
                   " both write cell " + std::to_string(g[i]) +
                   " — use the general IR solver for repeated writes");
    writer[g[i]] = i;
  }
  return writer;
}

void GeneralIrSystem::validate() const {
  IR_REQUIRE(f.size() == g.size() && h.size() == g.size(),
             "index maps f, g, h must have equal length");
  check_map(f, cells, "f");
  check_map(g, cells, "g");
  check_map(h, cells, "h");
}

std::vector<std::size_t> last_writer_before(const std::vector<std::size_t>& write_map,
                                            const std::vector<std::size_t>& read_map,
                                            std::size_t cells) {
  IR_REQUIRE(write_map.size() == read_map.size(), "map lengths must agree");
  std::vector<std::size_t> latest(cells, kNone);
  std::vector<std::size_t> pred(read_map.size(), kNone);
  for (std::size_t i = 0; i < read_map.size(); ++i) {
    IR_REQUIRE(read_map[i] < cells, "read index out of range");
    IR_REQUIRE(write_map[i] < cells, "write index out of range");
    pred[i] = latest[read_map[i]];
    latest[write_map[i]] = i;
  }
  return pred;
}

std::vector<std::size_t> final_writer(const std::vector<std::size_t>& write_map,
                                      std::size_t cells) {
  std::vector<std::size_t> last(cells, kNone);
  for (std::size_t i = 0; i < write_map.size(); ++i) {
    IR_REQUIRE(write_map[i] < cells, "write index out of range");
    last[write_map[i]] = i;
  }
  return last;
}

}  // namespace ir::core
