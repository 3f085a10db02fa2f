// Benchmark-side spans: recorded around the benchmark's calls into each layer's
// public functions, kept in memory, written out as a Chrome trace at exit.
//
//   { perfbench::Span span("core.execute_plan", "core"); execute_plan(...); }
//
// Recording is off unless enabled (the untraced runs pay one relaxed load per
// span).  A span records its name, layer, thread and start/end time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::uint64_t thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double ms() const { return (end_s - start_s) * 1e3; }
};

void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// Completed spans so far (copy).
[[nodiscard]] std::vector<SpanRecord> spans();

/// Durations in ms of every completed span called `name`.
[[nodiscard]] std::vector<double> span_ms(const char* name);

/// Write every completed span as Chrome trace-event JSON.  Returns false
/// (and leaves no partial file) when the file cannot be written.
bool write_trace(const std::string& path);

class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

}  // namespace perfbench
