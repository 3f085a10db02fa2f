// Shared formatting + parsing of the serve line protocol (docs/service.md).
//
// Extracted from tools/irserve.cpp so the newline protocol and the HTTP tier
// (service/http_tier.hpp) are the *same protocol over different transports*:
// one formatter produces the `ok`/`values`/`error` lines, one parser decodes
// solve attributes and "."-terminated documents.  Byte-identical solve
// values across transports is a hard acceptance criterion of the serving
// tier, pinned by irfuzz's --http differential leg and the HTTP soak — this
// file is what makes it true by construction rather than by discipline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/plan.hpp"
#include "core/serialize.hpp"
#include "obs/registry.hpp"
#include "service/request.hpp"

namespace ir::service::line_protocol {

using Value = std::uint64_t;
using Response = BasicResponse<Value>;

/// The default initial array when values=inline is absent: 1 + cell mod 97,
/// matching `irtool solve`.
[[nodiscard]] std::vector<Value> default_initial(std::size_t cells);

/// Order-sensitive xor-rotate checksum of a value array (the `checksum=`
/// field of ok lines).
[[nodiscard]] std::uint64_t values_checksum(const std::vector<Value>& values);

/// "ok id=... rid=... engine=... ... checksum=..." (no trailing newline).
[[nodiscard]] std::string ok_line(std::uint64_t id, const Response& response);

/// "values C v0 v1 ... v{C-1}" (no trailing newline).
[[nodiscard]] std::string values_line(const std::vector<Value>& values);

/// "error id=N status=S detail=D" with newlines in the detail flattened.
[[nodiscard]] std::string error_line(std::uint64_t id, Status status,
                                     std::string detail);

/// The one-line `stats` v2 reply: ledger + latency quantiles + the window
/// delta since the previous scrape of `window`.
[[nodiscard]] std::string stats_v2_line(const ServiceStats& stats,
                                        obs::ScrapeWindow& window);

/// The `drained <ledger>` reply with the balance verdict.
[[nodiscard]] std::string drained_line(const ServiceStats& stats);

/// Whitespace-split.
[[nodiscard]] std::vector<std::string> split_tokens(const std::string& line);

/// Consume one "."-terminated document from the front of `rest` (the string
/// form of irserve's read_document).  False when the terminator is missing.
[[nodiscard]] bool take_document(std::string_view& rest, std::string& doc);

/// Decoded attributes of a solve command (`id=`, `deadline_ms=`, `engine=`,
/// `values=inline`) — shared by the newline command line and the HTTP query
/// string.
struct SolveArgs {
  std::uint64_t id = 0;
  Clock::duration deadline{0};
  core::PlanOptions plan;
  bool inline_values = false;
};

/// Apply one key=value attribute.  False (with *error set) on an unknown
/// key or bad value.
[[nodiscard]] bool apply_solve_attr(const std::string& key,
                                    const std::string& value, SolveArgs* args,
                                    std::string* error);

/// Build a typed request from the parsed args + documents.  Throws
/// std::exception on a malformed system/values document (the caller answers
/// status=invalid with the message).
template <typename Request>
void fill_request(const SolveArgs& args, const std::string& sys_doc,
                  const std::string& values_doc, Request* out) {
  out->sys = core::system_from_text(sys_doc);
  if (args.inline_values) {
    const auto doubles = core::values_from_text(values_doc);
    out->initial.reserve(doubles.size());
    for (const double v : doubles) {
      out->initial.push_back(static_cast<Value>(v));
    }
  } else {
    out->initial = default_initial(out->sys.cells);
  }
  out->plan = args.plan;
  out->deadline = args.deadline;
}

}  // namespace ir::service::line_protocol
