// The serve line protocol's codec: document framing (take_document), the
// reply formatters, and the HTTP tier's in-place body decode.
#include "service/line_protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "net/http_client.hpp"
#include "service/http_tier.hpp"
#include "service/serve_op.hpp"
#include "service/shard_router.hpp"
#include "support/rng.hpp"

namespace ir::service {
namespace {

namespace lp = line_protocol;

/// The formatter's spec: "values C" then " v" per value, each by
/// std::to_string.
std::string to_string_join(const std::vector<lp::Value>& values) {
  std::string line = "values " + std::to_string(values.size());
  for (const lp::Value v : values) line += " " + std::to_string(v);
  return line;
}

/// The values at every decimal-width edge: 0, 9, 10, 99, 100, 10^k - 1,
/// 10^k and 10^k + 1 up to 10^19, and UINT64_MAX.
std::vector<lp::Value> width_edges() {
  std::vector<lp::Value> values = {0, 9, 10, 99, 100};
  lp::Value power = 1;
  for (int k = 1; k <= 19; ++k) {
    power *= 10;
    values.insert(values.end(), {power - 1, power, power + 1});
  }
  values.push_back(std::numeric_limits<lp::Value>::max());
  return values;
}

TEST(LineProtocolTest, ValuesLineMatchesAToStringJoin) {
  EXPECT_EQ(lp::values_line({}), "values 0");
  for (const lp::Value v : width_edges()) {
    EXPECT_EQ(lp::values_line({v}), "values 1 " + std::to_string(v)) << v;
  }
  const std::vector<lp::Value> edges = width_edges();
  EXPECT_EQ(lp::values_line(edges), to_string_join(edges));

  support::SplitMix64 rng(7);
  std::vector<lp::Value> random(1000);
  for (auto& v : random) v = rng.next() >> rng.below(64);  // every width
  EXPECT_EQ(lp::values_line(random), to_string_join(random));
}

TEST(LineProtocolTest, OkReplyIsTheOkLineThenTheValuesLine) {
  lp::Response response;
  response.status = Status::kOk;
  response.info.engine = "jumping";
  response.info.plan_fingerprint = 42;
  response.info.batch_size = 1;
  for (const bool empty : {true, false}) {
    response.values = empty ? std::vector<lp::Value>{} : width_edges();
    const std::string reply = lp::ok_reply(9, response);
    EXPECT_EQ(reply, lp::ok_line(9, response) + "\n" + to_string_join(response.values) + "\n");
  }
  // Written once, in a buffer of the reply's size (not a per-value bound).
  response.values.assign(20'000, 7);
  const std::string reply = lp::ok_reply(9, response);
  EXPECT_LE(reply.capacity(), reply.size() + 64);
}

/// take_document as it was before its view form, kept as the spec: split
/// on '\n', drop each line's trailing CRs, stop at a line equal to ".".
bool reference_take_document(std::string_view& rest, std::string& doc) {
  doc.clear();
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view() : rest.substr(nl + 1);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.remove_suffix(1);
    }
    if (line == ".") return true;
    doc.append(line);
    doc.push_back('\n');
  }
  return false;
}

TEST(LineProtocolTest, TakeDocumentStopsAtACrlfTerminator) {
  std::string_view rest = "ir-system v1\r\ncells 2\r\n.\r\nnext";
  std::string_view view;
  ASSERT_TRUE(lp::take_document(rest, view));
  EXPECT_EQ(view, "ir-system v1\r\ncells 2\r\n");  // the view keeps the CRs
  EXPECT_EQ(rest, "next");

  rest = "ir-system v1\r\ncells 2\r\n.\r\r\nnext";
  std::string copy;
  ASSERT_TRUE(lp::take_document(rest, copy));
  EXPECT_EQ(copy, "ir-system v1\ncells 2\n");  // the string form drops them
  EXPECT_EQ(rest, "next");
}

TEST(LineProtocolTest, DotSpaceIsNotATerminator) {
  std::string_view rest = "a\n. \nb.\n..\n\r.\n.\n";
  std::string_view view;
  ASSERT_TRUE(lp::take_document(rest, view));
  EXPECT_EQ(view, "a\n. \nb.\n..\n\r.\n");
  EXPECT_TRUE(rest.empty());
}

TEST(LineProtocolTest, MissingTerminatorReturnsFalse) {
  std::string_view rest = "a\r\nb";
  std::string_view view;
  EXPECT_FALSE(lp::take_document(rest, view));
  EXPECT_EQ(view, "a\r\nb");
  EXPECT_TRUE(rest.empty());

  rest = "a\nb";
  std::string copy;
  EXPECT_FALSE(lp::take_document(rest, copy));
  EXPECT_EQ(copy, "a\nb\n");  // as irserve's newline reader builds it
  EXPECT_TRUE(rest.empty());
}

TEST(LineProtocolTest, BackToBackDocumentsTakeInTurn) {
  std::string_view rest = "ir-system v1\n.\nir-values v1\n.\n";
  std::string_view first;
  std::string_view second;
  ASSERT_TRUE(lp::take_document(rest, first));
  ASSERT_TRUE(lp::take_document(rest, second));
  EXPECT_EQ(first, "ir-system v1\n");
  EXPECT_EQ(second, "ir-values v1\n");
  EXPECT_TRUE(rest.empty());
  std::string_view none;
  EXPECT_FALSE(lp::take_document(rest, none));
  EXPECT_TRUE(none.empty());
}

TEST(LineProtocolTest, TakeDocumentMatchesTheLineByLineReader) {
  // Every short string over the bytes that matter to framing.
  constexpr std::string_view kAlphabet = ".\n\r a";
  support::SplitMix64 rng(11);
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string text;
    for (std::uint64_t k = rng.below(12); k > 0; --k) text += kAlphabet[rng.below(kAlphabet.size())];
    std::string_view want_rest = text;
    std::string want;
    const bool want_found = reference_take_document(want_rest, want);

    std::string_view rest = text;
    std::string copy;
    EXPECT_EQ(lp::take_document(rest, copy), want_found) << ::testing::PrintToString(text);
    EXPECT_EQ(copy, want) << ::testing::PrintToString(text);
    EXPECT_EQ(rest, want_rest) << ::testing::PrintToString(text);

    rest = text;
    std::string_view view;
    EXPECT_EQ(lp::take_document(rest, view), want_found) << ::testing::PrintToString(text);
    EXPECT_EQ(rest, want_rest) << ::testing::PrintToString(text);
    // The view is the same lines with their CRs kept.
    std::string stripped;
    std::string_view again = view;
    (void)reference_take_document(again, stripped);
    if (want_found) {
      EXPECT_EQ(stripped, want) << ::testing::PrintToString(text);
    }
  }
}

// ---- the HTTP tier decodes the body where it lies ---------------------------

class LineProtocolHttpTest : public ::testing::Test {
 protected:
  using Router = ShardRouter<ServeOp>;

  LineProtocolHttpTest()
      : router_(ServeOp{algebra::ModMulMonoid(1'000'000'007ull), 0}, ServiceConfig{}, 1),
        tier_(router_, HttpTierConfig{}, window_, [] { return obs::registry().snapshot(); }) {}

  void SetUp() override { ASSERT_TRUE(tier_.start()) << tier_.error(); }
  void TearDown() override {
    tier_.stop();
    router_.shutdown();
  }

  net::HttpClientResponse post(const std::string& body) {
    net::HttpClient client("127.0.0.1", tier_.port());
    net::HttpClientResponse response;
    EXPECT_TRUE(client.post("/v1/solve?id=3", body, &response)) << client.error();
    return response;
  }

  Router router_;
  obs::ScrapeWindow window_;
  HttpTier<Router> tier_;
};

std::string crlf(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '\n') out += '\r';
    out += c;
  }
  return out;
}

/// The values line of a 200 reply body ("ok ...\nvalues ...\n").
std::string values_of(const std::string& body) {
  const std::size_t nl = body.find('\n');
  return nl == std::string::npos ? std::string() : body.substr(nl + 1);
}

TEST_F(LineProtocolHttpTest, CrlfBodySolvesLikeItsLfTwin) {
  const std::string lf = "ir-system v1\ncells 4\nequations 3\n0 1 1\n1 2 2\n2 3 3\n.\n";
  const auto plain = post(lf);
  const auto windows = post(crlf(lf));
  ASSERT_EQ(plain.status, 200) << plain.body;
  ASSERT_EQ(windows.status, 200) << windows.body;
  EXPECT_EQ(values_of(windows.body), values_of(plain.body));
  EXPECT_EQ(values_of(plain.body), "values 4 1 2 6 24\n");
}

TEST_F(LineProtocolHttpTest, CrlfBodyIsRejectedWithTheNewlineTransportsMessage) {
  // 42 equations fit the 44 bytes the document spans with its CRs but not
  // the 40 the newline transport reads without them: the message names 40.
  const std::string body = crlf("ir-system v1\ncells 8\nequations 42\n0 1 1\n.\n");
  std::string_view rest = body;
  std::string doc;
  ASSERT_TRUE(lp::take_document(rest, doc));
  std::string message;
  try {
    (void)core::system_from_text(doc);
  } catch (const support::ContractViolation& e) {
    message = e.what();
  }
  ASSERT_NE(message.find("40-byte document"), std::string::npos) << message;

  const auto response = post(body);
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(response.body, lp::error_line(3, Status::kRejectedInvalid, message) + "\n");
}

}  // namespace
}  // namespace ir::service
