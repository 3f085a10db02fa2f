#include "testing/generators.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "support/contract.hpp"

namespace ir::testing {

namespace {

using core::GeneralIrSystem;
using support::SplitMix64;

/// Pick n in [1, cap] (boundary shapes pick their own tiny sizes).
std::size_t pick_iterations(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t cap = std::max<std::size_t>(limits.max_iterations, 1);
  return 1 + rng.below(cap);
}

GeneralIrSystem make_system(std::size_t cells, std::vector<std::size_t> f,
                            std::vector<std::size_t> g, std::vector<std::size_t> h) {
  GeneralIrSystem sys;
  sys.cells = cells;
  sys.f = std::move(f);
  sys.g = std::move(g);
  sys.h = std::move(h);
  return sys;
}

GeneralIrSystem gen_boundary(SplitMix64& rng) {
  const std::size_t n = rng.below(3);  // 0, 1, or 2 equations
  if (n == 0) {
    // Cells without equations (and the fully empty system) still serialize,
    // fingerprint, and solve.
    return make_system(rng.below(3), {}, {}, {});
  }
  const std::size_t cells = n + rng.below(3);
  std::vector<std::size_t> f(n), g(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = rng.below(cells);
    g[i] = rng.below(cells);
    h[i] = rng.chance(0.5) ? g[i] : rng.below(cells);
  }
  return make_system(cells, std::move(f), std::move(g), std::move(h));
}

GeneralIrSystem gen_chain(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  const std::size_t cells = std::min(n + 1 + rng.below(4), limits.max_cells + n + 1);
  std::vector<std::size_t> f(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = i + 1;
    // Mostly the local predecessor; occasional breaks start fresh chains
    // (those become the blocked solver's per-block roots).
    f[i] = (i > 0 && rng.chance(0.8)) ? i : rng.below(cells);
  }
  return make_system(cells, std::move(f), g, g);
}

GeneralIrSystem gen_linear_chain(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  std::vector<std::size_t> f(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = i;
    g[i] = i + 1;
  }
  return make_system(n + 1, std::move(f), g, g);
}

GeneralIrSystem gen_star(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  const std::size_t cells = n + 1 + rng.below(3);
  const std::size_t hub = rng.below(cells);
  if (rng.chance(0.5)) {
    // Fan-out: every equation reads the hub, writes its own cell (ordinary).
    std::vector<std::size_t> g = support::random_injection(n, cells, rng);
    std::vector<std::size_t> f(n, hub);
    return make_system(cells, std::move(f), g, g);
  }
  // Fan-in: every equation writes the hub — repeated writes, GIR route.
  std::vector<std::size_t> f(n), h(n);
  std::vector<std::size_t> g(n, hub);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = rng.below(cells);
    h[i] = rng.chance(0.5) ? hub : rng.below(cells);
  }
  return make_system(cells, std::move(f), std::move(g), std::move(h));
}

GeneralIrSystem gen_permutation(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  std::vector<std::size_t> g = support::random_permutation(n, rng);
  std::vector<std::size_t> f(n);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = (i > 0 && rng.chance(0.7)) ? g[rng.below(i)] : rng.below(n);
  }
  return make_system(n, std::move(f), g, g);
}

GeneralIrSystem gen_ordinary_scattered(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  const std::size_t cells = n + rng.below(std::max<std::size_t>(limits.max_cells - n, 1) + 1);
  std::vector<std::size_t> g = support::random_injection(n, cells, rng);
  std::vector<std::size_t> f(n);
  const double rewire = rng.uniform(0.3, 0.95);
  for (std::size_t i = 0; i < n; ++i) {
    f[i] = (i > 0 && rng.chance(rewire)) ? g[rng.below(i)] : rng.below(cells);
  }
  return make_system(cells, std::move(f), g, g);
}

GeneralIrSystem gen_dependence_free(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  // Written cells [0, n), read cells [n, 2n): no read ever sees a write, so
  // the router must take the elementwise path.
  const std::size_t cells = 2 * n;
  std::vector<std::size_t> f(n), g(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = i;
    f[i] = n + rng.below(n);
    h[i] = n + rng.below(n);
  }
  return make_system(cells, std::move(f), std::move(g), std::move(h));
}

GeneralIrSystem gen_general_random(SplitMix64& rng, const GeneratorLimits& limits) {
  const std::size_t n = pick_iterations(rng, limits);
  const std::size_t cells =
      1 + rng.below(std::max<std::size_t>(std::min(limits.max_cells, 2 * n), 1));
  std::vector<std::size_t> f(n), g(n), h(n);
  const double rewire = rng.uniform(0.2, 0.9);
  for (std::size_t i = 0; i < n; ++i) {
    g[i] = rng.below(cells);
    auto pick = [&]() {
      if (i > 0 && rng.chance(rewire)) return g[rng.below(i)];
      return rng.below(cells);
    };
    f[i] = pick();
    h[i] = pick();
  }
  return make_system(cells, std::move(f), std::move(g), std::move(h));
}

std::vector<std::string_view> split_lines(const std::string& text) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) {
      if (begin < text.size()) lines.push_back(std::string_view(text).substr(begin));
      break;
    }
    lines.push_back(std::string_view(text).substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string_view>& lines) {
  std::string out;
  for (const auto line : lines) {
    out.append(line);
    out += '\n';
  }
  return out;
}

bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }

/// Index of a random occurrence of `c` in non-empty `text`, or npos.
std::size_t random_occurrence(const std::string& text, char c, support::SplitMix64& rng) {
  const std::size_t at = text.find(c, rng.below(text.size()));
  return at != std::string::npos ? at : text.find(c);
}

/// [begin, end) of a random run of decimal digits in non-empty `text`;
/// begin is npos when it has none.
std::pair<std::size_t, std::size_t> random_number(const std::string& text,
                                                  support::SplitMix64& rng) {
  constexpr const char* kDigits = "0123456789";
  std::size_t begin = text.find_first_of(kDigits, rng.below(text.size()));
  if (begin == std::string::npos) begin = text.find_first_of(kDigits);
  if (begin == std::string::npos) return {begin, begin};
  while (begin > 0 && is_digit(text[begin - 1])) --begin;
  std::size_t end = begin;
  while (end < text.size() && is_digit(text[end])) ++end;
  return {begin, end};
}

}  // namespace

std::string_view to_string(ShapeClass shape) {
  switch (shape) {
    case ShapeClass::kBoundary: return "boundary";
    case ShapeClass::kChain: return "chain";
    case ShapeClass::kLinearChain: return "linear-chain";
    case ShapeClass::kStar: return "star";
    case ShapeClass::kPermutation: return "permutation";
    case ShapeClass::kOrdinaryScattered: return "ordinary-scattered";
    case ShapeClass::kDependenceFree: return "dependence-free";
    case ShapeClass::kGeneralRandom: return "general-random";
  }
  return "unknown";
}

GeneratedCase generate_case(ShapeClass shape, support::SplitMix64& rng,
                            const GeneratorLimits& limits) {
  GeneratedCase out;
  out.shape = shape;
  switch (shape) {
    case ShapeClass::kBoundary: out.sys = gen_boundary(rng); break;
    case ShapeClass::kChain: out.sys = gen_chain(rng, limits); break;
    case ShapeClass::kLinearChain: out.sys = gen_linear_chain(rng, limits); break;
    case ShapeClass::kStar: out.sys = gen_star(rng, limits); break;
    case ShapeClass::kPermutation: out.sys = gen_permutation(rng, limits); break;
    case ShapeClass::kOrdinaryScattered:
      out.sys = gen_ordinary_scattered(rng, limits);
      break;
    case ShapeClass::kDependenceFree: out.sys = gen_dependence_free(rng, limits); break;
    case ShapeClass::kGeneralRandom: out.sys = gen_general_random(rng, limits); break;
  }
  out.sys.validate();
  return out;
}

GeneratedCase generate_case(support::SplitMix64& rng, const GeneratorLimits& limits) {
  const auto shape = kAllShapeClasses[rng.below(kAllShapeClasses.size())];
  return generate_case(shape, rng, limits);
}

bool is_ordinary_shape(const core::GeneralIrSystem& sys) {
  if (sys.h != sys.g) return false;
  std::vector<char> written(sys.cells, 0);
  for (const std::size_t cell : sys.g) {
    if (cell >= sys.cells || written[cell] != 0) return false;
    written[cell] = 1;
  }
  return true;
}

core::OrdinaryIrSystem to_ordinary(const core::GeneralIrSystem& sys) {
  IR_REQUIRE(is_ordinary_shape(sys), "system is not ordinary-shaped (h = g, g injective)");
  core::OrdinaryIrSystem ord;
  ord.cells = sys.cells;
  ord.f = sys.f;
  ord.g = sys.g;
  return ord;
}

std::string mutate_document(const std::string& text, support::SplitMix64& rng) {
  if (text.empty()) return "garbage\n";
  std::string out = text;
  switch (rng.below(12)) {
    case 0:  // truncate mid-document
      return text.substr(0, rng.below(text.size()));
    case 1:  // corrupt one byte
      out[rng.below(out.size())] = static_cast<char>(rng.below(256));
      return out;
    case 2: {  // duplicate a line (duplicate headers / duplicate counts)
      auto lines = split_lines(text);
      if (lines.empty()) return text + text;
      const std::size_t pick = rng.below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick), lines[pick]);
      return join_lines(lines);
    }
    case 3: {  // delete a line
      auto lines = split_lines(text);
      if (lines.empty()) return "";
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.below(lines.size())));
      return join_lines(lines);
    }
    case 4: {  // overflow-sized count: reserve()-bombs must become parse errors
      auto lines = split_lines(text);
      out.clear();
      bool rewrote = false;
      for (const auto line : lines) {
        std::string s(line);
        for (const char* key : {"equations ", "cells ", "count "}) {
          if (!rewrote && s.rfind(key, 0) == 0) {
            s = std::string(key) + (rng.chance(0.5) ? "18446744073709551615"
                                                    : "99999999999999999");
            rewrote = true;
          }
        }
        out += s;
        out += '\n';
      }
      if (!rewrote) return text.substr(0, text.size() / 2);
      return out;
    }
    case 5: {  // insert a garbage line
      auto lines = split_lines(text);
      const std::size_t pick = lines.empty() ? 0 : rng.below(lines.size() + 1);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick),
                   "0 -3 18446744073709551616 x");
      return join_lines(lines);
    }
    case 6: {  // widen a number to 20 digits (zero-padded, same value) or to 2^64
      const auto [begin, end] = random_number(text, rng);
      if (begin == std::string::npos) return text + "18446744073709551616\n";
      const std::size_t digits = end - begin;
      const std::string wide = rng.chance(0.5) && digits < 20
                                   ? std::string(20 - digits, '0') + text.substr(begin, digits)
                                   : std::string("18446744073709551616");
      return out.replace(begin, digits, wide);
    }
    case 7: {  // CRLF: a '\r' before a '\n'
      const std::size_t at = random_occurrence(text, '\n', rng);
      return at == std::string::npos ? out + '\r' : out.insert(at, 1, '\r');
    }
    case 8: {  // a tab for a space
      const std::size_t at = random_occurrence(text, ' ', rng);
      if (at != std::string::npos) out[at] = '\t';
      return out;
    }
    case 9:  // a '#' comment from a random point to the end of its line
      return out.insert(rng.below(out.size() + 1), rng.chance(0.5) ? " # note" : "#");
    case 10:  // drop the final newline
      if (out.back() == '\n') out.pop_back();
      return out;
    default: {  // a sign before a number
      const std::size_t begin = random_number(text, rng).first;
      if (begin != std::string::npos) out.insert(begin, 1, rng.chance(0.5) ? '+' : '-');
      return out;
    }
  }
}

}  // namespace ir::testing
