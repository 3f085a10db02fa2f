#include "service/line_protocol.hpp"

#include <cctype>
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

std::string values_line(const std::vector<Value>& values) {
  std::string line = "values " + std::to_string(values.size());
  for (const auto v : values) {
    line += ' ';
    line += std::to_string(v);
  }
  return line;
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

bool take_document(std::string_view& rest, std::string& doc) {
  doc.clear();
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
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
