#include "core/serialize.hpp"

#include <bit>
#include <charconv>

namespace ir::core {

namespace {

constexpr bool is_blank(char c) noexcept { return c == ' ' || c == '\t'; }

/// Line-oriented reader: strips comments/blank lines, tracks line numbers
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

  /// Read the next line in one pass when it is plain: `want` tokens (any
  /// number when 0) separated by runs of ' ' or '\t', with no blank before
  /// the first or after the last, ended by '\n'.  `token(p, end)` reads one
  /// token at p and advances p past it, or returns false when it cannot; a
  /// token must end at a blank or the newline, so '#' and '\r' make a line
  /// not plain.  A plain line is consumed and true returned.  Otherwise
  /// nothing is consumed, and the caller reads the line again through
  /// next(), whose outcome and message are the reference for every line
  /// this declines.
  template <typename Token>
  bool next_plain(std::size_t want, Token&& token) {
    if (pos_ >= text_.size()) return false;
    const char* p = text_.data() + pos_;
    const char* const end = text_.data() + text_.size();
    for (std::size_t k = 1;; ++k) {
      if (!token(p, end) || p == end) return false;
      if (*p == '\n') {
        if (want != 0 && k != want) return false;
        break;
      }
      if (k == want || !is_blank(*p)) return false;
      do ++p;
      while (p != end && is_blank(*p));
    }
    pos_ = static_cast<std::size_t>(p - text_.data()) + 1;
    ++line_number_;
    return true;
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

/// The readers' one tokenizer: the tokens of a line split on runs of ' ' and
/// '\t', without allocating.
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept : line_(line) {}

  /// The next token; false when the line has none left.
  bool next(std::string_view& token) noexcept {
    while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_blank(line_[pos_])) ++pos_;
    token = line_.substr(start, pos_ - start);
    return pos_ > start;
  }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

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

/// A token of 1 to 19 decimal digits, accumulated as it is scanned.  Such a
/// token is below 2^64, so from_chars would read the same size_t; a longer,
/// signed or empty token is refused and left to parse_size.
bool read_digits(const char*& p, const char* end, std::size_t& out) noexcept {
  const char* const start = p;
  std::uint64_t value = 0;
  while (p != end) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    value = value * 10 + digit;  // wraps only past 19 digits, which are refused
    ++p;
  }
  out = value;
  return p != start && p - start <= 19;
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
  Tokens tokens(line);
  std::string_view name;
  std::string_view count;
  std::string_view extra;
  if (!tokens.next(name) || name != key || !tokens.next(count) || tokens.next(extra)) {
    reader.fail("expected '" + std::string(key) + " <count>'");
  }
  return parse_size(reader, count);
}

/// An equation line that next_plain declined, read token by token.
void read_triple(const LineReader& reader, std::string_view line, std::size_t (&out)[3]) {
  Tokens tokens(line);
  std::string_view token[4];
  std::size_t count = 0;
  while (count < 4 && tokens.next(token[count])) ++count;
  if (count != 3) reader.fail("expected 'f g h' triple");
  for (std::size_t k = 0; k < 3; ++k) out[k] = parse_size(reader, token[k]);
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
  std::size_t triple[3] = {};
  std::size_t* slot = triple;
  const auto index = [&slot](const char*& p, const char* end) {
    return read_digits(p, end, *slot++);
  };
  for (std::size_t i = 0; i < n; ++i) {
    slot = triple;
    if (!reader.next_plain(3, index)) {
      std::string_view line;
      if (!reader.next(line)) reader.fail("expected " + std::to_string(n) +
                                          " equations, got " + std::to_string(i));
      read_triple(reader, line, triple);
    }
    sys.f.push_back(triple[0]);
    sys.g.push_back(triple[1]);
    sys.h.push_back(triple[2]);
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
  // A plain line's values are kept as they are read; a line that turns out
  // not to be plain drops them and is read again token by token.  from_chars
  // never reads a blank or a newline, so where next_plain accepts its stop,
  // the token it read is the whole token parse_double would see.
  const auto number = [&values, count](const char*& p, const char* end) {
    double value = 0.0;
    if (values.size() == count) return false;
    const auto [ptr, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{}) return false;
    p = ptr;
    values.push_back(value);
    return true;
  };
  std::string_view line;
  while (values.size() < count) {
    const std::size_t kept = values.size();
    if (reader.next_plain(0, number)) continue;
    values.resize(kept);
    if (!reader.next(line)) break;
    Tokens tokens(line);
    std::string_view token;
    while (tokens.next(token)) {
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
