#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex

std::uint64_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff;
}

}  // namespace

void set_tracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> spans() {
  std::lock_guard lock(g_mutex);
  return g_spans;
}

std::vector<double> span_ms(const char* name) {
  std::vector<double> out;
  const std::string wanted = name;
  std::lock_guard lock(g_mutex);
  for (const SpanRecord& span : g_spans) {
    if (wanted == span.name) out.push_back(span.ms());
  }
  return out;
}

bool write_trace(const std::string& path) {
  const std::vector<SpanRecord> all = spans();
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) return false;
  double origin = 0.0;
  for (const SpanRecord& span : all) {
    if (origin == 0.0 || span.start_s < origin) origin = span.start_s;
  }
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", s.name, s.layer,
                 static_cast<unsigned long long>(s.thread), (s.start_s - origin) * 1e6,
                 (s.end_s - s.start_s) * 1e6);
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::fclose(out) == 0;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

Span::Span(const char* name, const char* layer) {
  if (!tracing()) return;
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.thread = thread_tag();
  record_.start_s = now_s();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = now_s();
  std::lock_guard lock(g_mutex);
  g_spans.push_back(record_);
}

}  // namespace perfbench
