#include "service/line_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdlib>

namespace ir::service::line_protocol {

std::vector<Value> default_initial(std::size_t cells) {
  std::vector<Value> initial(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    initial[c] = 1 + c % 97;
  }
  return initial;
}

std::uint64_t values_checksum(const std::vector<Value>& values) {
  std::uint64_t checksum = 0;
  for (const auto v : values) {
    checksum ^= v + 0x9e3779b9 + (checksum << 6) + (checksum >> 2);
  }
  return checksum;
}

std::string ok_line(std::uint64_t id, const Response& response) {
  const auto us = [](Clock::duration d) {
    return std::to_string(static_cast<unsigned long long>(
        std::chrono::duration_cast<std::chrono::microseconds>(d).count()));
  };
  std::string line = "ok id=" + std::to_string(id);
  line += " rid=" + std::to_string(response.info.trace.request_id);
  line += " engine=" + response.info.engine;
  line += " fingerprint=" + std::to_string(response.info.plan_fingerprint);
  line += " batch=" + std::to_string(response.info.batch_size);
  line += " coalesced=" + std::string(response.info.coalesced ? "1" : "0");
  line += " wait_us=" + us(response.info.wait);
  line += " exec_us=" + us(response.info.execute);
  line += " cells=" + std::to_string(response.values.size());
  line += " checksum=" + std::to_string(values_checksum(response.values));
  return line;
}

namespace {

/// Decimal digits of v, without a division: the bit width b leaves two
/// candidates, t = floor(b * 1233 / 4096) (1233 / 4096 is just below
/// log10 2) and t + 1, and one comparison with 10^t picks.
std::size_t decimal_digits(std::uint64_t v) noexcept {
  static constexpr std::uint64_t kPow10[20] = {
      1ull, 10ull, 100ull, 1'000ull, 10'000ull, 100'000ull, 1'000'000ull, 10'000'000ull,
      100'000'000ull, 1'000'000'000ull, 10'000'000'000ull, 100'000'000'000ull,
      1'000'000'000'000ull, 10'000'000'000'000ull, 100'000'000'000'000ull,
      1'000'000'000'000'000ull, 10'000'000'000'000'000ull, 100'000'000'000'000'000ull,
      1'000'000'000'000'000'000ull, 10'000'000'000'000'000'000ull};
  // v | 1 gives 0 one digit and moves no value across a power of ten.
  const std::uint64_t w = v | 1;
  const std::size_t t = (static_cast<std::size_t>(std::bit_width(w)) * 1233) >> 12;
  return t + (w >= kPow10[t] ? 1 : 0);
}

constexpr std::string_view kValuesWord = "values ";

std::size_t values_line_size(const std::vector<Value>& values) noexcept {
  std::size_t size = kValuesWord.size() + decimal_digits(values.size()) + values.size();
  for (const Value v : values) size += decimal_digits(v);
  return size;
}

/// Write values_line into [out, end), which must be values_line_size bytes.
void write_values_line(char* out, char* end, const std::vector<Value>& values) {
  char* p = std::copy(kValuesWord.begin(), kValuesWord.end(), out);
  p = std::to_chars(p, end, values.size()).ptr;
  for (const Value v : values) {
    *p++ = ' ';
    p = std::to_chars(p, end, v).ptr;
  }
  IR_INVARIANT(p == end, "values line must fill exactly its sized buffer");
}

}  // namespace

std::string values_line(const std::vector<Value>& values) {
  std::string line(values_line_size(values), '\0');
  write_values_line(line.data(), line.data() + line.size(), values);
  return line;
}

std::string ok_reply(std::uint64_t id, const Response& response) {
  std::string body = ok_line(id, response);
  const std::size_t values_at = body.size() + 1;
  const std::size_t values_size = values_line_size(response.values);
  // The ok line grows once, to exactly the body's size.  The '\n' fill is
  // the separator after the ok line and the final newline, the two bytes
  // the values line leaves alone.
  body.resize(values_at + values_size + 1, '\n');
  char* const values = body.data() + values_at;
  write_values_line(values, values + values_size, response.values);
  return body;
}

std::string error_line(std::uint64_t id, Status status, std::string detail) {
  for (auto& ch : detail) {
    if (ch == '\n' || ch == '\r') ch = ' ';
  }
  return "error id=" + std::to_string(id) + " status=" + to_string(status) +
         " detail=" + detail;
}

std::string stats_v2_line(const ServiceStats& stats, obs::ScrapeWindow& window) {
  std::string line = "stats v=2 " + stats.to_string();
  const auto quantile_us = [](const obs::MetricsSnapshot::Histogram& h, double q) {
    return std::to_string(static_cast<std::uint64_t>(h.quantile(q)));
  };
  const auto total =
      obs::registry().snapshot().histogram("service.latency.total_us");
  line += " p50_us=" + quantile_us(total, 0.5);
  line += " p90_us=" + quantile_us(total, 0.9);
  line += " p99_us=" + quantile_us(total, 0.99);
  line += " p999_us=" + quantile_us(total, 0.999);
  const auto win = window.scrape().histogram("service.latency.total_us");
  line += " win_count=" + std::to_string(win.count());
  line += " win_p99_us=" + quantile_us(win, 0.99);
  return line;
}

std::string drained_line(const ServiceStats& stats) {
  const bool balanced =
      stats.accepted == stats.completed() && stats.replied == stats.accepted;
  std::string line = "drained";
  const auto field = [&line](const char* name, std::uint64_t value) {
    line += ' ';
    line += name;
    line += '=';
    line += std::to_string(value);
  };
  field("accepted", stats.accepted);
  field("replied", stats.replied);
  field("executed_ok", stats.executed_ok);
  field("executed_failed", stats.executed_failed);
  field("deadline_misses", stats.deadline_misses);
  field("cancelled", stats.cancelled);
  field("rejected", stats.rejected());
  field("balanced", balanced ? 1 : 0);
  return line;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    const std::size_t start = i;
    while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

bool take_document(std::string_view& rest, std::string_view& doc) {
  // Only a '.' that starts a line can start the terminator, so the scan
  // jumps from '.' to '.' (memchr) instead of walking lines.
  for (std::size_t dot = rest.find('.'); dot != std::string_view::npos;
       dot = rest.find('.', dot + 1)) {
    if (dot != 0 && rest[dot - 1] != '\n') continue;
    std::size_t end = dot + 1;
    while (end < rest.size() && rest[end] == '\r') ++end;
    if (end < rest.size() && rest[end] != '\n') continue;
    doc = rest.substr(0, dot);
    rest = end < rest.size() ? rest.substr(end + 1) : std::string_view();
    return true;
  }
  doc = rest;
  rest = std::string_view();
  return false;
}

bool take_document(std::string_view& rest, std::string& doc) {
  std::string_view view;
  const bool found = take_document(rest, view);
  // Only an unterminated last line (no terminator found) lacks its '\n'.
  const bool unterminated = !view.empty() && view.back() != '\n';
  // Copy the document but for each line's trailing CRs, jumping from CR to
  // CR: a run of CRs is dropped where it ends a line, kept mid-line.
  doc.clear();
  for (std::size_t cr = view.find('\r'); cr != std::string_view::npos;
       cr = view.find('\r')) {
    std::size_t end = cr;
    while (end < view.size() && view[end] == '\r') ++end;
    const bool ends_line = end == view.size() || view[end] == '\n';
    doc.append(view.substr(0, ends_line ? cr : end));
    view.remove_prefix(end);
  }
  doc.append(view);
  if (unterminated) doc.push_back('\n');
  return found;
}

bool apply_solve_attr(const std::string& key, const std::string& value,
                      SolveArgs* args, std::string* error) {
  if (key == "id") {
    args->id = std::strtoull(value.c_str(), nullptr, 10);
    return true;
  }
  if (key == "deadline_ms") {
    args->deadline =
        std::chrono::milliseconds(std::strtoull(value.c_str(), nullptr, 10));
    return true;
  }
  if (key == "engine") {
    if (const auto choice = core::engine_choice_from_name(value)) {
      args->plan.engine = *choice;
      return true;
    }
    if (error != nullptr) *error = "unknown engine '" + value + "'";
    return false;
  }
  if (key == "values") {
    if (value == "inline") {
      args->inline_values = true;
      return true;
    }
    if (error != nullptr) *error = "unknown values mode '" + value + "'";
    return false;
  }
  if (error != nullptr) *error = "unknown attribute '" + key + "'";
  return false;
}

}  // namespace ir::service::line_protocol
