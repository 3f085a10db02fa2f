#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "testing/generators.hpp"
#include "testing/random_systems.hpp"

namespace ir::core {
namespace {

// The reference decoder: the readers as they were before their one-pass line
// scan, kept verbatim as the spec — a LineReader that finds the newline, cuts
// the comment and trims the line, then a vector of tokens per line, each
// parsed with from_chars.  system_from_text and values_from_text must agree
// with it on every input: the same system or values, or a ContractViolation
// with the same message.
namespace reference {

class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

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

void check_count_plausible(const LineReader& reader, std::size_t count,
                           std::size_t document_bytes) {
  if (count > document_bytes) {
    reader.fail("declared count " + std::to_string(count) +
                " exceeds what a " + std::to_string(document_bytes) +
                "-byte document can hold");
  }
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

}  // namespace reference

/// A reader's result: what it decoded, or its ContractViolation message.
template <typename T>
struct Outcome {
  std::optional<T> value;
  std::string error;
};

template <typename T>
Outcome<T> decode(T (*reader)(std::string_view), std::string_view text) {
  Outcome<T> out;
  try {
    out.value = reader(text);
  } catch (const support::ContractViolation& e) {
    out.error = e.what();
  }
  return out;
}

void expect_system_matches_reference(std::string_view text) {
  const auto want = decode(&reference::system_from_text, text);
  const auto got = decode(&system_from_text, text);
  ASSERT_EQ(got.error, want.error) << "document:\n" << text;
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << "document:\n" << text;
  if (!want.value || !got.value) return;
  EXPECT_EQ(got.value->cells, want.value->cells) << "document:\n" << text;
  EXPECT_EQ(got.value->f, want.value->f) << "document:\n" << text;
  EXPECT_EQ(got.value->g, want.value->g) << "document:\n" << text;
  EXPECT_EQ(got.value->h, want.value->h) << "document:\n" << text;
}

/// Values compare bit for bit, so a NaN matches itself and -0 does not
/// match 0.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  bits.reserve(values.size());
  for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

void expect_values_match_reference(std::string_view text) {
  const auto want = decode(&reference::values_from_text, text);
  const auto got = decode(&values_from_text, text);
  ASSERT_EQ(got.error, want.error) << "document:\n" << text;
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << "document:\n" << text;
  if (want.value && got.value) {
    EXPECT_EQ(bits_of(*got.value), bits_of(*want.value)) << "document:\n" << text;
  }
}

std::string crlf(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

TEST(SerializeSystemTest, RoundTripsHandWritten) {
  GeneralIrSystem sys{8, {0, 1, 3}, {1, 3, 5}, {1, 3, 5}};
  const auto text = to_text(sys);
  const auto back = system_from_text(text);
  EXPECT_EQ(back.cells, sys.cells);
  EXPECT_EQ(back.f, sys.f);
  EXPECT_EQ(back.g, sys.g);
  EXPECT_EQ(back.h, sys.h);
}

TEST(SerializeSystemTest, RoundTripsRandom) {
  support::SplitMix64 rng(31337);
  for (int trial = 0; trial < 5; ++trial) {
    const auto sys = testing::random_general_system(200, 120, rng, 0.6);
    const auto back = system_from_text(to_text(sys));
    EXPECT_EQ(back.f, sys.f);
    EXPECT_EQ(back.g, sys.g);
    EXPECT_EQ(back.h, sys.h);
  }
}

TEST(SerializeSystemTest, OrdinarySerializesAsGirEmbedding) {
  OrdinaryIrSystem ord{4, {0, 1}, {1, 2}};
  const auto back = system_from_text(to_text(ord));
  EXPECT_EQ(back.h, back.g);
}

TEST(SerializeSystemTest, CommentsAndBlanksIgnored) {
  const char* text = R"(# a comment
ir-system v1

cells 4   # trailing comment
equations 1
0 1 1
)";
  const auto sys = system_from_text(text);
  EXPECT_EQ(sys.cells, 4u);
  EXPECT_EQ(sys.iterations(), 1u);
}

TEST(SerializeSystemTest, DiagnosticsCarryLineNumbers) {
  try {
    (void)system_from_text("ir-system v1\ncells 4\nequations 1\n0 x 1\n");
    FAIL() << "expected throw";
  } catch (const support::ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("line 4"), std::string::npos);
  }
}

TEST(SerializeSystemTest, RejectsMalformedDocuments) {
  EXPECT_THROW((void)system_from_text(""), support::ContractViolation);
  EXPECT_THROW((void)system_from_text("not-a-header\n"), support::ContractViolation);
  EXPECT_THROW((void)system_from_text("ir-system v1\ncells 4\n"),
               support::ContractViolation);
  // Too few equations.
  EXPECT_THROW((void)system_from_text("ir-system v1\ncells 4\nequations 2\n0 1 1\n"),
               support::ContractViolation);
  // Trailing garbage.
  EXPECT_THROW(
      (void)system_from_text("ir-system v1\ncells 4\nequations 1\n0 1 1\nextra\n"),
      support::ContractViolation);
  // Out-of-range index caught by validate().
  EXPECT_THROW((void)system_from_text("ir-system v1\ncells 2\nequations 1\n0 5 1\n"),
               support::ContractViolation);
}

TEST(SerializeSystemTest, OverflowSizedCountsRejectedWithLineNumbers) {
  // A declared count larger than the document can physically hold must be a
  // parse error with a line number, never a vector::reserve length_error or
  // bad_alloc (the fuzzer's overflow-count mutation).
  try {
    (void)system_from_text(
        "ir-system v1\ncells 4\nequations 18446744073709551615\n");
    FAIL() << "expected throw";
  } catch (const support::ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW(
      (void)system_from_text("ir-system v1\ncells 4\nequations 99999999999999999\n"),
      support::ContractViolation);
}

TEST(SerializeSystemTest, DuplicateHeadersRejected) {
  EXPECT_THROW((void)system_from_text("ir-system v1\nir-system v1\ncells 2\n"
                                      "equations 1\n0 1 1\n"),
               support::ContractViolation);
  EXPECT_THROW((void)system_from_text("ir-system v1\ncells 2\ncells 2\n"
                                      "equations 1\n0 1 1\n"),
               support::ContractViolation);
  EXPECT_THROW((void)system_from_text("ir-system v1\ncells 2\nequations 1\n"
                                      "equations 1\n0 1 1\n"),
               support::ContractViolation);
}

TEST(SerializeValuesTest, RoundTripsExactly) {
  const std::vector<double> values{0.0, -1.5, 3.14159265358979, 1e-300, 1e300, 42.0};
  const auto back = values_from_text(to_text(values));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], values[i]) << i;  // shortest round-trip is lossless
  }
}

TEST(SerializeValuesTest, GoldenDoubleEmission) {
  // Pin the canonical rendering byte-for-byte: std::to_chars shortest
  // round-trip form, same as the system serializer.  The old %.17g path
  // emitted "3.1415926535897931" and "9.9999999999999997e+305" here — any
  // drift between the two serializers (or a regression back to printf)
  // breaks this golden.
  const std::vector<double> values{0.0,       -1.5,   0.1,    3.14159265358979,
                                   1e-300,    1e306,  -0.0,   42.0};
  EXPECT_EQ(to_text(values),
            "ir-values v1\ncount 8\n"
            "0 -1.5 0.1 3.14159265358979 1e-300 1e+306 -0 42\n");
}

TEST(SerializeValuesTest, EmptyArray) {
  const auto back = values_from_text(to_text(std::vector<double>{}));
  EXPECT_TRUE(back.empty());
}

TEST(SerializeValuesTest, CanonicalEmissionHasNoTrailingSpaces) {
  // Counts not divisible by the 8-per-line wrap used to emit "value \n" on
  // the final line; canonical emission separates values only *between* them.
  EXPECT_EQ(to_text(std::vector<double>{1.0, 2.0, 3.0}),
            "ir-values v1\ncount 3\n1 2 3\n");
  EXPECT_EQ(to_text(std::vector<double>{1.0}), "ir-values v1\ncount 1\n1\n");
  for (std::size_t count : {1u, 3u, 7u, 8u, 9u, 16u, 17u}) {
    std::vector<double> values(count);
    for (std::size_t i = 0; i < count; ++i) values[i] = 0.25 * static_cast<double>(i);
    const std::string text = to_text(values);
    EXPECT_EQ(text.find(" \n"), std::string::npos) << "count " << count;
    EXPECT_EQ(text.back(), '\n') << "count " << count;
    // Byte-exact round trip: parse then re-emit reproduces the same bytes.
    EXPECT_EQ(to_text(values_from_text(text)), text) << "count " << count;
  }
}

TEST(SerializeValuesTest, OverflowSizedCountRejectedWithLineNumber) {
  try {
    (void)values_from_text("ir-values v1\ncount 18446744073709551615\n");
    FAIL() << "expected throw";
  } catch (const support::ContractViolation& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos)
        << error.what();
  }
}

TEST(SerializeValuesTest, CountMismatchRejected) {
  EXPECT_THROW((void)values_from_text("ir-values v1\ncount 3\n1 2\n"),
               support::ContractViolation);
  EXPECT_THROW((void)values_from_text("ir-values v1\ncount 1\n1 2\n"),
               support::ContractViolation);
}

TEST(SerializeReferenceTest, HandWrittenSystemsMatchTheReferenceDecoder) {
  const std::string head = "ir-system v1\ncells 8\nequations 3\n";
  const std::string tail = "1 3 3\n3 5 5\n";
  const std::string plain = head + "0 1 1\n" + tail;
  std::vector<std::string> documents = {
      plain,
      crlf(plain),
      head + "0\t1\t1\n" + tail,
      head + "0 \t 1\t\t1\n" + tail,
      "ir-system v1\ncells\t8\r\nequations 3 \n0 1 1\n" + tail,
      head + "0 1 1 # trailing comment\n" + tail,
      head + "0 1#x 1\n" + tail,
      head + "0 1 1#\n" + tail,
      head + "# a whole-line comment\n0 1 1\n" + tail,
      head + "\n\n0 1 1\n   \n\t\n" + tail,
      plain.substr(0, plain.size() - 1),  // no final newline
      head + "0 1\r 1\n" + tail,         // '\r' mid-line
      head + "0\r1 1\n" + tail,
      head + "  0 1 1\n" + tail,
      head + "0 1 1  \n" + tail,
      head + "0000000000000000001 1 1\n" + tail,   // 19 digits, value 1
      head + "9999999999999999999 1 1\n" + tail,   // 19 digits, out of range
      head + "00000000000000000001 1 1\n" + tail,  // 20 digits, value 1
      head + "10000000000000000000 1 1\n" + tail,  // 20 digits, out of range
      head + "18446744073709551615 1 1\n" + tail,  // 2^64 - 1
      head + "18446744073709551616 1 1\n" + tail,  // 2^64
      head + "0 +1 1\n" + tail,
      head + "0 -1 1\n" + tail,
      head + "0 1e3 1\n" + tail,
      head + "0 1\n" + tail,      // two tokens
      head + "0 1 1 1\n" + tail,  // four tokens
      head + "0 1 1\n1 3 3\n",   // too few equations
      plain + "3 5 5\n",          // trailing content
      "ir-system v1\ncells 8\nequations 18446744073709551615\n0 1 1\n",
      crlf("ir-system v1\ncells 8\nequations 40\n0 1 1\n"),  // implausible count
      "ir-system v1\ncells 8\nequations 0\n",
      "",
  };
  for (const auto& text : documents) expect_system_matches_reference(text);
}

TEST(SerializeReferenceTest, HandWrittenValuesMatchTheReferenceDecoder) {
  const std::string head = "ir-values v1\ncount 4\n";
  const std::string plain = head + "1.5 2 0 7\n";
  std::vector<std::string> documents = {
      plain,
      crlf(plain),
      head + "1.5\t2\t0 \t 7\n",
      head + "1.5 2 # comment\n0 7\n",
      head + "1.5 2#x\n0 7\n",
      head + "\n1.5 2\n\n   \n0 7\n",
      plain.substr(0, plain.size() - 1),  // no final newline
      head + "1.5 2\r 0 7\n",            // '\r' mid-line
      head + "  1.5 2 0 7  \n",
      head + "1.5 2 0 0000000000000000007\n",   // 19 digits
      head + "1.5 2 0 00000000000000000007\n",  // 20 digits
      head + "1.5 2 0 18446744073709551616\n",  // 2^64
      head + "1.5 2 0 +1\n",
      head + "1.5 2 0 -1\n",
      head + "1.5 2 0 1e3\n",
      head + "1.5 2 0 1e400\n",
      head + "1.5 2 0 nan\n",
      head + "1.5 2 0 -inf\n",
      head + "1.5 2 0 0x10\n",
      head + "1.5 2 0 7 9\n",  // more values than declared
      head + "1.5 2\n0\n",     // fewer
      head + "1.5 2\n0 7\n",
      head + "1.5 2 0 7\n8\n",  // trailing content
      "ir-values v1\ncount 18446744073709551615\n1\n",
      crlf("ir-values v1\ncount 30\n1 2\n"),  // implausible count
      "ir-values v1\ncount 0\n",
      "",
  };
  for (const auto& text : documents) expect_values_match_reference(text);
}

TEST(SerializeReferenceTest, MutatedDocumentsMatchTheReferenceDecoder) {
  support::SplitMix64 rng(2024);
  testing::GeneratorLimits limits;
  limits.max_iterations = 24;
  limits.max_cells = 40;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto c = testing::generate_case(rng, limits);
    std::vector<double> doubles(c.sys.cells);
    for (std::size_t i = 0; i < doubles.size(); ++i) {
      doubles[i] = rng.chance(0.5) ? static_cast<double>(rng.below(1'000'000'007ull))
                                   : 0.25 * static_cast<double>(i) - 3.0;
    }
    std::string system_text = to_text(c.sys);
    std::string values_text = to_text(doubles);
    // One to three mutations stacked, so edges combine (a CR next to a
    // widened number, a comment after a dropped newline, ...).
    for (std::uint64_t m = rng.below(3); m < 3; ++m) {
      system_text = testing::mutate_document(system_text, rng);
      values_text = testing::mutate_document(values_text, rng);
    }
    expect_system_matches_reference(system_text);
    expect_values_match_reference(values_text);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ir::core
