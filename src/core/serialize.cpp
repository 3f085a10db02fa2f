#include "core/serialize.hpp"

#include <bit>
#include <charconv>

namespace ir::core {

namespace {

/// Line-oriented tokenizer: strips comments/blank lines, tracks line numbers
/// for diagnostics.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Next meaningful line (comments stripped, trimmed); empty optional at EOF.
  bool next(std::string_view& line) {
    while (pos_ < text_.size()) {
      std::size_t end = text_.find('\n', pos_);
      if (end == std::string_view::npos) end = text_.size();
      std::string_view raw = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++line_number_;
      const std::size_t hash = raw.find('#');
      if (hash != std::string_view::npos) raw = raw.substr(0, hash);
      while (!raw.empty() && (raw.front() == ' ' || raw.front() == '\t' ||
                              raw.front() == '\r')) {
        raw.remove_prefix(1);
      }
      while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\t' ||
                              raw.back() == '\r')) {
        raw.remove_suffix(1);
      }
      if (!raw.empty()) {
        line = raw;
        return true;
      }
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw support::ContractViolation("line " + std::to_string(line_number_) + ": " + what);
  }

  [[nodiscard]] std::size_t line_number() const noexcept { return line_number_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
};

/// Split a line into whitespace-separated tokens.
std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::size_t parse_size(const LineReader& reader, std::string_view token) {
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
  if (ec != std::errc{} || ptr != token.end()) {
    throw support::ContractViolation("line " + std::to_string(reader.line_number()) +
                                     ": expected a non-negative integer, got '" +
                                     std::string(token) + "'");
  }
  return value;
}

double parse_double(const LineReader& reader, std::string_view token) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(token.begin(), token.end(), value);
  if (ec != std::errc{} || ptr != token.end()) {
    throw support::ContractViolation("line " + std::to_string(reader.line_number()) +
                                     ": expected a number, got '" + std::string(token) +
                                     "'");
  }
  return value;
}

void expect_header(LineReader& reader, std::string_view magic) {
  std::string_view line;
  if (!reader.next(line) || line != magic) {
    reader.fail("expected header '" + std::string(magic) + "'");
  }
}

std::size_t expect_sized_field(LineReader& reader, std::string_view key) {
  std::string_view line;
  if (!reader.next(line)) reader.fail("unexpected end of input");
  const auto tokens = tokens_of(line);
  if (tokens.size() != 2 || tokens[0] != key) {
    reader.fail("expected '" + std::string(key) + " <count>'");
  }
  return parse_size(reader, tokens[1]);
}

/// Reject declared element counts that cannot possibly fit the document —
/// every element occupies at least one byte of text.  Without this guard an
/// overflow-sized count reaches vector::reserve and raises bad_alloc /
/// length_error instead of a ContractViolation with a line number.
void check_count_plausible(const LineReader& reader, std::size_t count,
                           std::size_t document_bytes) {
  if (count > document_bytes) {
    reader.fail("declared count " + std::to_string(count) +
                " exceeds what a " + std::to_string(document_bytes) +
                "-byte document can hold");
  }
}

}  // namespace

std::string to_text(const GeneralIrSystem& sys) {
  sys.validate();
  std::string out = "ir-system v1\n";
  out += "cells " + std::to_string(sys.cells) + "\n";
  out += "equations " + std::to_string(sys.iterations()) + "\n";
  for (std::size_t i = 0; i < sys.iterations(); ++i) {
    out += std::to_string(sys.f[i]) + " " + std::to_string(sys.g[i]) + " " +
           std::to_string(sys.h[i]) + "\n";
  }
  return out;
}

std::string to_text(const OrdinaryIrSystem& sys) {
  return to_text(GeneralIrSystem::from_ordinary(sys));
}

namespace {

/// Both content hashes of a system in one pass over its index arrays, read
/// as 64-bit words: `cells` and the equation count, then every equation's
/// (f, g, h) triple.  Equation i goes to lane i mod kLanes of each mixer, so
/// the lanes run as independent multiply chains; each round is a bijection
/// of its lane for a fixed word, so changing any one word always changes
/// that lane.  The two mixers share no structure: the fingerprint uses
/// xxHash64's round and avalanche, the identity a xor-multiply-xorshift
/// round closed by the splitmix64 finalizer, so a pair of systems that
/// collides under one has no structural reason to collide under the other.
class WordHasher {
 public:
  static constexpr std::size_t kLanes = 4;

  WordHasher(std::uint64_t cells, std::uint64_t equations) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      a_[l] = 0x9e3779b97f4a7c15ull * (2 * l + 1);
      b_[l] = 0xd6e8feb86659fd93ull * (2 * l + 1);
    }
    a_[0] = round_a(a_[0], cells);
    b_[0] = round_b(b_[0], cells);
    a_[1] = round_a(a_[1], equations);
    b_[1] = round_b(b_[1], equations);
    words_ = 2 + 3 * equations;
  }

  void equation(std::size_t lane, std::uint64_t f, std::uint64_t g, std::uint64_t h) {
    a_[lane] = round_a(round_a(round_a(a_[lane], f), g), h);
    b_[lane] = round_b(round_b(round_b(b_[lane], f), g), h);
  }

  [[nodiscard]] ContentHash finish() const noexcept {
    std::uint64_t fa = 0x27d4eb2f165667c5ull;
    std::uint64_t fb = 0x2545f4914f6cdd1dull;
    for (std::size_t l = 0; l < kLanes; ++l) {
      fa = round_a(fa, a_[l]);
      fb = round_b(fb, b_[l]);
    }
    fa ^= words_;
    fa ^= fa >> 33;
    fa *= kA2;
    fa ^= fa >> 29;
    fa *= 0x165667b19e3779f9ull;
    fa ^= fa >> 32;
    fb ^= words_;
    fb ^= fb >> 30;
    fb *= 0xbf58476d1ce4e5b9ull;
    fb ^= fb >> 27;
    fb *= 0x94d049bb133111ebull;
    fb ^= fb >> 31;
    return {fa, {fb}};
  }

 private:
  static constexpr std::uint64_t kA1 = 0x9e3779b185ebca87ull;
  static constexpr std::uint64_t kA2 = 0xc2b2ae3d27d4eb4full;
  static constexpr std::uint64_t kB = 0xff51afd7ed558ccdull;

  static std::uint64_t round_a(std::uint64_t acc, std::uint64_t word) noexcept {
    return std::rotl(acc + word * kA2, 31) * kA1;
  }
  static std::uint64_t round_b(std::uint64_t acc, std::uint64_t word) noexcept {
    acc = (acc ^ word) * kB;
    return acc ^ (acc >> 29);
  }

  std::uint64_t a_[kLanes] = {};
  std::uint64_t b_[kLanes] = {};
  std::uint64_t words_ = 0;
};

ContentHash hash_system(std::size_t cells, const std::vector<std::size_t>& f,
                        const std::vector<std::size_t>& g,
                        const std::vector<std::size_t>& h) {
  const std::size_t n = g.size();
  IR_REQUIRE(f.size() == n && h.size() == n, "f, g and h must have one entry per equation");
  const std::size_t* fp = f.data();
  const std::size_t* gp = g.data();
  const std::size_t* hp = h.data();
  WordHasher hasher(cells, n);
  std::size_t i = 0;
  for (; i + WordHasher::kLanes <= n; i += WordHasher::kLanes) {
    for (std::size_t l = 0; l < WordHasher::kLanes; ++l) {
      hasher.equation(l, fp[i + l], gp[i + l], hp[i + l]);
    }
  }
  for (std::size_t l = 0; i < n; ++i, ++l) hasher.equation(l, fp[i], gp[i], hp[i]);
  return hasher.finish();
}

}  // namespace

std::uint64_t content_fingerprint(const GeneralIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.h).fingerprint;
}

std::uint64_t content_fingerprint(const OrdinaryIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.g).fingerprint;
}

ContentIdentity content_identity(const GeneralIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.h).identity;
}

ContentIdentity content_identity(const OrdinaryIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.g).identity;
}

ContentHash content_hash(const GeneralIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.h);
}

ContentHash content_hash(const OrdinaryIrSystem& sys) {
  return hash_system(sys.cells, sys.f, sys.g, sys.g);
}

GeneralIrSystem system_from_text(std::string_view text) {
  LineReader reader(text);
  expect_header(reader, "ir-system v1");
  GeneralIrSystem sys;
  sys.cells = expect_sized_field(reader, "cells");
  const std::size_t n = expect_sized_field(reader, "equations");
  check_count_plausible(reader, n, text.size());
  sys.f.reserve(n);
  sys.g.reserve(n);
  sys.h.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string_view line;
    if (!reader.next(line)) reader.fail("expected " + std::to_string(n) +
                                        " equations, got " + std::to_string(i));
    const auto tokens = tokens_of(line);
    if (tokens.size() != 3) reader.fail("expected 'f g h' triple");
    sys.f.push_back(parse_size(reader, tokens[0]));
    sys.g.push_back(parse_size(reader, tokens[1]));
    sys.h.push_back(parse_size(reader, tokens[2]));
  }
  std::string_view extra;
  if (reader.next(extra)) reader.fail("trailing content after the last equation");
  sys.validate();
  return sys;
}

std::string to_text(const std::vector<double>& values) {
  std::string out = "ir-values v1\n";
  out += "count " + std::to_string(values.size()) + "\n";
  char buffer[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Shortest round-trip form (to_chars), the same emitter the system
    // serializer uses: the serialized bytes are only canonical if every
    // path that renders a double agrees byte-for-byte.  %.17g here used to
    // print 0.1 as "0.10000000000000001" while to_chars prints "0.1" — same
    // value, different bytes.
    const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, values[i]);
    IR_INVARIANT(ec == std::errc{}, "double must fit the emission buffer");
    out.append(buffer, static_cast<std::size_t>(ptr - buffer));
    // Canonical emission: a separator only *between* values, so every line —
    // including a short final one — ends in exactly '\n' with no padding.
    out += (i + 1) % 8 == 0 || i + 1 == values.size() ? '\n' : ' ';
  }
  return out;
}

std::vector<double> values_from_text(std::string_view text) {
  LineReader reader(text);
  expect_header(reader, "ir-values v1");
  const std::size_t count = expect_sized_field(reader, "count");
  check_count_plausible(reader, count, text.size());
  std::vector<double> values;
  values.reserve(count);
  std::string_view line;
  while (values.size() < count && reader.next(line)) {
    for (const auto token : tokens_of(line)) {
      if (values.size() == count) reader.fail("more values than declared");
      values.push_back(parse_double(reader, token));
    }
  }
  if (values.size() != count) {
    throw support::ContractViolation("expected " + std::to_string(count) +
                                     " values, got " + std::to_string(values.size()));
  }
  if (reader.next(line)) reader.fail("trailing content after the last value");
  return values;
}

}  // namespace ir::core
