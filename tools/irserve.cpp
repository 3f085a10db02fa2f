// irserve — the batch-solve service (src/service/) as a standalone server.
//
// Frontends (both may run at once):
//
//  * The newline protocol over stdin/stdout (default) or TCP
//    (--socket=PORT): pipelined solve/ping/stats/metrics/drain/quit, one
//    response per request in submission order (docs/service.md).  TCP
//    connections are served concurrently, thread-per-connection; `quit` on
//    any connection stops the listener and lets in-flight sessions finish.
//  * HTTP/1.1 keep-alive (--http=PORT): the multi-tenant serving tier —
//    POST /v1/solve, GET /v1/stats, GET /metrics, GET /healthz — with
//    API-key tenants, token-bucket rate limits, and weighted fair-share
//    queueing (docs/http.md).  When --http is given without --socket, the
//    newline protocol still runs on stdin/stdout as the control channel
//    (`drain`, `quit`).
//
// Both frontends feed the same ShardRouter: --shards=N partitions the plan
// cache and dispatcher pools by plan_cache_key (consistent hashing); the
// default of 1 is exactly the unsharded server.  Solve payloads are
// formatted by service/line_protocol.hpp on both transports, so the same
// request yields byte-identical `values` lines over HTTP and newline — the
// serving tier's differential contract.
//
//   solve [id=N] [deadline_ms=D]
//         [engine=auto|elementwise|jumping|blocked|scan|gir] [values=inline]
//   <ir-system v1 document>
//   .
//   [<ir-values v1 document>      only with values=inline
//   .]
//
//   ping | stats | metrics | drain | quit
//
// Responses (one per request, in order):
//
//   ok id=N rid=R engine=E fingerprint=F batch=K coalesced=0|1 wait_us=W
//      exec_us=X cells=C checksum=S
//   values C v0 v1 ... v{C-1}     (follows each ok line)
//   error id=N status=<reason> detail=<text>
//   pong | stats v=2 <fields> | <prometheus text> . | drained <ledger> | bye
//
// The operation is modular multiplication with a server-wide modulus
// (--mod=P); without values=inline the initial array is 1 + cell mod 97,
// matching `irtool solve`.  --inject-slow-ns=NS busy-waits NS nanoseconds in
// every combine — the load-injection knob the CI soak legs use to create
// real queue pressure and deadline misses.  --slow-log=FILE with
// --slow-threshold-us=T appends one JSON line per slow request
// (docs/observability.md).
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "algebra/monoids.hpp"
#include "core/plan_io.hpp"
#include "core/serialize.hpp"
#include "obs/metrics_export.hpp"
#include "obs/prometheus_export.hpp"
#include "obs/registry.hpp"
#include "service/http_tier.hpp"
#include "service/line_protocol.hpp"
#include "service/request_trace.hpp"
#include "service/serve_op.hpp"
#include "service/shard_router.hpp"

namespace {

using namespace ir;
namespace lp = service::line_protocol;

using Router = service::ShardRouter<service::ServeOp>;
using Tier = service::HttpTier<Router>;

struct ServeFlags {
  std::uint64_t mod = 1'000'000'007ull;
  std::uint64_t slow_ns = 0;
  int socket_port = -1;  ///< -1 = stdin/stdout
  int backlog = 128;
  int http_port = -1;    ///< -1 = HTTP tier off
  std::size_t shards = 1;
  std::size_t http_workers = 2;
  std::size_t qos_inflight = 8;
  std::size_t tenant_queue_cap = 256;
  std::vector<service::TenantSpec> tenants;
  std::string metrics_file;
  std::string slow_log_file;
  std::uint64_t slow_threshold_us = 0;  ///< 0 = 10ms default when slow-log set
  std::size_t ticker_ms = 20;
  std::string prom_file;               ///< --metrics-file periodic exposition
  std::size_t prom_interval_ms = 1000;
  std::string plan_store_dir;  ///< --plan-store=DIR persistent plan store
  bool warm_start = false;     ///< --warm-start preload store at boot
  service::ServiceConfig config;
};

int usage() {
  std::fprintf(stderr,
               "usage: irserve [--socket=PORT] [--backlog=N] [--http=PORT]\n"
               "               [--shards=N] [--tenant=name:key[:weight[:rate[:burst]]]]\n"
               "               [--http-workers=N] [--qos-inflight=N]\n"
               "               [--tenant-queue-cap=N] [--mod=P] [--dispatchers=N]\n"
               "               [--exec-threads=N] [--queue-cap=N] [--max-batch=N]\n"
               "               [--high-watermark=N] [--low-watermark=N]\n"
               "               [--inject-slow-ns=NS] [--metrics=FILE]\n"
               "               [--slow-log=FILE] [--slow-threshold-us=T]\n"
               "               [--ticker-ms=MS] [--metrics-file=FILE]\n"
               "               [--metrics-interval-ms=MS] [--wide={on|off}]\n"
               "               [--plan-store=DIR [--warm-start]]\n"
               "\n"
               "--http starts the multi-tenant HTTP tier (docs/http.md):\n"
               "POST /v1/solve, GET /v1/stats, GET /metrics, GET /healthz.\n"
               "--tenant (repeatable) declares an API-key tenant with a\n"
               "fair-share weight and token-bucket rate limit; no --tenant\n"
               "means open access.  --shards partitions the plan cache and\n"
               "dispatcher pools by plan_cache_key (consistent hashing).\n"
               "\n"
               "--plan-store persists compiled gir-cap plans to DIR and serves\n"
               "cache misses from it (ordinary plans compile faster than a stored\n"
               "copy verifies, so they are not stored); --warm-start preloads every\n"
               "stored plan at boot, so a restarted server answers its gir-cap\n"
               "systems with zero compiles and compiles each ordinary system once\n"
               "(docs/plan_store.md).\n"
               "\n"
               "Reads the docs/service.md line protocol from stdin (or the\n"
               "socket) and writes one response per request in order.\n");
  return 2;
}

/// Registry snapshot with the ServiceStats ledger merged in as
/// service.stats.* counters/gauges, so one Prometheus exposition carries
/// both the histogram quantiles and the request ledger.  `tier` (when the
/// HTTP frontend is up) layers its http/tenant/qos/shard counters on top.
obs::MetricsSnapshot service_snapshot(const Router& router, const Tier* tier) {
  obs::MetricsSnapshot snap = obs::registry().snapshot();
  const service::ServiceStats stats = router.stats();
  snap.counters["service.stats.accepted"] = stats.accepted;
  snap.counters["service.stats.rejected"] = stats.rejected();
  snap.counters["service.stats.executed_ok"] = stats.executed_ok;
  snap.counters["service.stats.executed_failed"] = stats.executed_failed;
  snap.counters["service.stats.deadline_misses"] = stats.deadline_misses;
  snap.counters["service.stats.cancelled"] = stats.cancelled;
  snap.counters["service.stats.dispatched"] = stats.dispatched;
  snap.counters["service.stats.replied"] = stats.replied;
  snap.counters["service.stats.batches"] = stats.batches;
  snap.counters["service.stats.coalesced_requests"] = stats.coalesced_requests;
  snap.counters["service.stats.plan_compiles"] = stats.plan_compiles;
  snap.counters["service.stats.plan_cache_collisions"] = stats.plan_cache_collisions;
  snap.counters["service.stats.plan_store_hits"] = stats.plan_store_hits;
  snap.counters["service.stats.plan_store_preloaded"] = stats.plan_store_preloaded;
  snap.gauges["service.stats.queue_depth"] = stats.queue_depth;
  snap.gauges["service.stats.in_flight"] = stats.in_flight;
  snap.gauges["service.stats.peak_queue_depth"] = stats.peak_queue_depth;
  snap.gauges["service.stats.peak_batch"] = stats.peak_batch;
  if (tier != nullptr) tier->merge_metrics(snap);
  return snap;
}

/// Background timer writing the Prometheus exposition to a file every
/// interval (and once more at shutdown), via atomic rename.
class MetricsDumper {
 public:
  MetricsDumper(std::string path, std::size_t interval_ms,
                std::function<obs::MetricsSnapshot()> snapshot)
      : path_(std::move(path)), interval_ms_(interval_ms),
        snapshot_(std::move(snapshot)), thread_([this] { run(); }) {}

  ~MetricsDumper() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    dump();  // final exposition reflects the drained ledger
  }

 private:
  void dump() {
    try {
      obs::write_prometheus_file(path_, snapshot_());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "irserve: metrics dump failed: %s\n", error.what());
    }
  }

  void run() {
    std::unique_lock lock(mutex_);
    while (!stop_) {
      lock.unlock();
      dump();
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                   [this] { return stop_; });
    }
  }

  std::string path_;
  std::size_t interval_ms_;
  std::function<obs::MetricsSnapshot()> snapshot_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// One queued reply: either already-final text, or a future to await.  The
/// writer thread drains these in FIFO order, so pipelined clients see
/// responses in submission order even when batches complete out of order.
struct Reply {
  std::string ready;  ///< used when !pending.valid()
  std::future<Router::Response> pending;
  std::uint64_t id = 0;
  bool quit = false;

  static Reply text(std::string line) {
    Reply reply;
    reply.ready = std::move(line);
    return reply;
  }
  static Reply stop() {
    Reply reply;
    reply.quit = true;
    return reply;
  }
};

class ReplyWriter {
 public:
  explicit ReplyWriter(std::FILE* out) : out_(out), thread_([this] { run(); }) {}
  ~ReplyWriter() {
    push(Reply::stop());
    thread_.join();
  }

  void push(Reply reply) {
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(reply));
    }
    ready_.notify_one();
  }

 private:
  void run() {
    for (;;) {
      Reply reply;
      {
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [this] { return !queue_.empty(); });
        reply = std::move(queue_.front());
        queue_.pop_front();
      }
      if (reply.quit) return;
      if (reply.pending.valid()) {
        write_response(reply.id, reply.pending.get());
      } else {
        std::fprintf(out_, "%s\n", reply.ready.c_str());
      }
      std::fflush(out_);
    }
  }

  void write_response(std::uint64_t id, const Router::Response& response) {
    // The shared formatters (service/line_protocol.hpp) — the same bytes the
    // HTTP tier puts in a /v1/solve response body.
    if (!response.ok()) {
      std::fprintf(out_, "%s\n",
                   lp::error_line(id, response.status, response.error).c_str());
      return;
    }
    std::fprintf(out_, "%s\n%s\n", lp::ok_line(id, response).c_str(),
                 lp::values_line(response.values).c_str());
  }

  std::FILE* out_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<Reply> queue_;
  std::thread thread_;
};

/// Read lines until a line containing only "." — the document terminator.
/// Returns false on EOF before the terminator.
bool read_document(std::FILE* in, std::string& doc) {
  doc.clear();
  char* line = nullptr;
  std::size_t cap = 0;
  ssize_t len;
  bool terminated = false;
  while ((len = getline(&line, &cap, in)) != -1) {
    std::string_view view(line, static_cast<std::size_t>(len));
    while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) {
      view.remove_suffix(1);
    }
    if (view == ".") {
      terminated = true;
      break;
    }
    doc.append(view);
    doc.push_back('\n');
  }
  std::free(line);
  return terminated;
}

/// Serve one connection (stdin/stdout or an accepted socket) until EOF or
/// `quit`.  Returns false when the server should stop accepting connections.
/// Safe to run concurrently (thread-per-connection): the router, registry,
/// and ScrapeWindow are all thread-safe; each session owns its own writer.
bool serve_session(std::FILE* in, std::FILE* out, Router& router,
                   obs::ScrapeWindow& window, const Tier* tier) {
  ReplyWriter writer(out);
  char* line = nullptr;
  std::size_t cap = 0;
  ssize_t len;
  bool keep_listening = true;
  while ((len = getline(&line, &cap, in)) != -1) {
    (void)len;
    const auto tokens = lp::split_tokens(line);
    if (tokens.empty()) continue;
    const std::string& command = tokens.front();

    if (command == "ping") {
      writer.push(Reply::text("pong"));
    } else if (command == "stats") {
      writer.push(Reply::text(lp::stats_v2_line(router.stats(), window)));
    } else if (command == "metrics") {
      // Prometheus text exposition, terminated by a lone "." so pipelined
      // clients can find the end without content-length framing.
      writer.push(
          Reply::text(obs::prometheus_text(service_snapshot(router, tier)) + "."));
    } else if (command == "drain") {
      // Terminal: stops admission, waits for in-flight work.  Subsequent
      // solves answer status=shutdown.
      router.drain();
      writer.push(Reply::text(lp::drained_line(router.stats())));
    } else if (command == "quit") {
      writer.push(Reply::text("bye"));
      keep_listening = false;
      break;
    } else if (command == "solve") {
      lp::SolveArgs args;
      bool bad = false;
      std::string bad_detail;
      for (std::size_t t = 1; t < tokens.size() && !bad; ++t) {
        const std::string& token = tokens[t];
        const std::size_t eq = token.find('=');
        const std::string key = token.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? std::string() : token.substr(eq + 1);
        if (!lp::apply_solve_attr(key, value, &args, &bad_detail)) bad = true;
      }

      std::string doc;
      if (!read_document(in, doc)) {
        writer.push(Reply::text(
            lp::error_line(args.id, service::Status::kRejectedInvalid,
                           "eof-before-terminator")));
        break;
      }
      std::string values_doc;
      if (args.inline_values && !read_document(in, values_doc)) {
        writer.push(Reply::text(
            lp::error_line(args.id, service::Status::kRejectedInvalid,
                           "eof-before-terminator")));
        break;
      }
      if (bad) {
        writer.push(Reply::text(lp::error_line(
            args.id, service::Status::kRejectedInvalid, bad_detail)));
        continue;
      }
      Router::Request request;
      try {
        lp::fill_request(args, doc, values_doc, &request);
      } catch (const std::exception& error) {
        writer.push(Reply::text(lp::error_line(
            args.id, service::Status::kRejectedInvalid, error.what())));
        continue;
      }
      Reply reply;
      reply.id = args.id;
      reply.pending = router.submit_async(std::move(request));
      writer.push(std::move(reply));
    } else {
      writer.push(Reply::text("error id=0 status=invalid detail=unknown-command-" +
                              command));
    }
  }
  std::free(line);
  return keep_listening;
}

int serve_socket(int port, int backlog, Router& router,
                 obs::ScrapeWindow& window, const Tier* tier) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("irserve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, backlog) < 0) {
    std::perror("irserve: bind/listen");
    ::close(listener);
    return 1;
  }
  // Report the actual port (PORT=0 asks the kernel to pick one — the soak
  // harness uses this to avoid collisions).
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  std::fprintf(stderr, "irserve: listening on 127.0.0.1:%d\n",
               ntohs(addr.sin_port));

  // Thread-per-connection: sessions are served concurrently (the router is
  // thread-safe; batch coalescing happens inside the service regardless of
  // which socket a request arrived on).  `quit` on any connection stops the
  // listener — shutdown() wakes the blocking accept — and in-flight
  // sessions run to completion before the listener closes.
  std::atomic<bool> stop{false};
  std::mutex sessions_mutex;
  std::vector<std::thread> sessions;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!stop.load()) std::perror("irserve: accept");
      break;
    }
    std::thread session([fd, &router, &window, &stop, listener, tier] {
      std::FILE* in = ::fdopen(fd, "r");
      std::FILE* out = ::fdopen(::dup(fd), "w");
      if (in == nullptr || out == nullptr) {
        std::perror("irserve: fdopen");
        if (in != nullptr) std::fclose(in);
        if (out != nullptr) std::fclose(out);
        if (in == nullptr && out == nullptr) ::close(fd);
        return;
      }
      const bool keep = serve_session(in, out, router, window, tier);
      std::fclose(out);
      std::fclose(in);
      if (!keep && !stop.exchange(true)) {
        // Wake the accept loop without closing the fd under it.
        ::shutdown(listener, SHUT_RDWR);
      }
    });
    {
      std::lock_guard lock(sessions_mutex);
      sessions.push_back(std::move(session));
    }
  }
  {
    std::lock_guard lock(sessions_mutex);
    for (auto& session : sessions) session.join();
  }
  ::close(listener);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeFlags flags;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto number = [&arg](std::size_t prefix) {
      return std::strtoull(arg.c_str() + prefix, nullptr, 10);
    };
    if (arg.rfind("--socket=", 0) == 0) {
      flags.socket_port = static_cast<int>(number(9));
    } else if (arg.rfind("--backlog=", 0) == 0) {
      flags.backlog = static_cast<int>(number(10));
    } else if (arg.rfind("--http=", 0) == 0) {
      flags.http_port = static_cast<int>(number(7));
    } else if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = number(9);
    } else if (arg.rfind("--http-workers=", 0) == 0) {
      flags.http_workers = number(15);
    } else if (arg.rfind("--qos-inflight=", 0) == 0) {
      flags.qos_inflight = number(15);
    } else if (arg.rfind("--tenant-queue-cap=", 0) == 0) {
      flags.tenant_queue_cap = number(19);
    } else if (arg.rfind("--tenant=", 0) == 0) {
      std::string error;
      const auto spec = service::TenantSpec::parse(arg.substr(9), &error);
      if (!spec) {
        std::fprintf(stderr, "irserve: %s\n", error.c_str());
        return usage();
      }
      flags.tenants.push_back(*spec);
    } else if (arg.rfind("--mod=", 0) == 0) {
      flags.mod = number(6);
    } else if (arg.rfind("--dispatchers=", 0) == 0) {
      flags.config.dispatchers = number(14);
    } else if (arg.rfind("--exec-threads=", 0) == 0) {
      flags.config.exec_threads = number(15);
    } else if (arg.rfind("--queue-cap=", 0) == 0) {
      flags.config.queue_capacity = number(12);
    } else if (arg.rfind("--max-batch=", 0) == 0) {
      flags.config.max_batch = number(12);
    } else if (arg.rfind("--high-watermark=", 0) == 0) {
      flags.config.high_watermark = number(17);
    } else if (arg.rfind("--low-watermark=", 0) == 0) {
      flags.config.low_watermark = number(16);
    } else if (arg.rfind("--inject-slow-ns=", 0) == 0) {
      flags.slow_ns = number(17);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      flags.metrics_file = arg.substr(10);
    } else if (arg.rfind("--slow-log=", 0) == 0) {
      flags.slow_log_file = arg.substr(11);
    } else if (arg.rfind("--slow-threshold-us=", 0) == 0) {
      flags.slow_threshold_us = number(20);
    } else if (arg.rfind("--ticker-ms=", 0) == 0) {
      flags.ticker_ms = number(12);
    } else if (arg.rfind("--metrics-file=", 0) == 0) {
      flags.prom_file = arg.substr(15);
    } else if (arg.rfind("--metrics-interval-ms=", 0) == 0) {
      flags.prom_interval_ms = number(22);
    } else if (arg == "--wide=on") {
      flags.config.wide_batches = true;
    } else if (arg == "--wide=off") {
      flags.config.wide_batches = false;
    } else if (arg.rfind("--plan-store=", 0) == 0) {
      flags.plan_store_dir = arg.substr(13);
    } else if (arg == "--warm-start") {
      flags.warm_start = true;
    } else {
      return usage();
    }
  }

  try {
    std::unique_ptr<service::SlowLog> slow_log;
    if (!flags.slow_log_file.empty()) {
      slow_log = std::make_unique<service::SlowLog>(flags.slow_log_file);
      flags.config.slow_log = slow_log.get();
      flags.config.slow_request_ns =
          (flags.slow_threshold_us != 0 ? flags.slow_threshold_us : 10'000) * 1000;
    }
    flags.config.ticker_interval_ms = flags.ticker_ms;

    if (flags.warm_start && flags.plan_store_dir.empty()) {
      std::fprintf(stderr, "irserve: --warm-start requires --plan-store=DIR\n");
      return usage();
    }
    std::unique_ptr<core::PlanStore> plan_store;
    if (!flags.plan_store_dir.empty()) {
      plan_store = std::make_unique<core::PlanStore>(flags.plan_store_dir);
      flags.config.plan_store = plan_store.get();
      flags.config.warm_start = flags.warm_start;
    }

    service::ServeOp op{algebra::ModMulMonoid(flags.mod), flags.slow_ns};
    Router router(op, flags.config, flags.shards);
    if (plan_store != nullptr && flags.warm_start) {
      std::fprintf(stderr, "irserve: warm start preloaded %llu plans from %s\n",
                   static_cast<unsigned long long>(plan_store->preloaded()),
                   flags.plan_store_dir.c_str());
    }
    obs::ScrapeWindow window;

    std::unique_ptr<Tier> tier;
    if (flags.http_port >= 0) {
      service::HttpTierConfig tier_config;
      tier_config.http.port = static_cast<std::uint16_t>(flags.http_port);
      tier_config.http.backlog = flags.backlog;
      tier_config.http.workers = flags.http_workers;
      tier_config.qos.max_inflight = flags.qos_inflight;
      tier_config.qos.tenant_queue_cap = flags.tenant_queue_cap;
      tier_config.tenants = flags.tenants;
      tier = std::make_unique<Tier>(router, std::move(tier_config), window,
                                    [&router, &tier] {
                                      return service_snapshot(router, tier.get());
                                    });
      if (!tier->start()) {
        std::fprintf(stderr, "irserve: http: %s\n", tier->error().c_str());
        return 1;
      }
      std::fprintf(stderr, "irserve: http listening on 127.0.0.1:%u\n",
                   static_cast<unsigned>(tier->port()));
    }

    std::unique_ptr<MetricsDumper> dumper;
    if (!flags.prom_file.empty()) {
      dumper = std::make_unique<MetricsDumper>(
          flags.prom_file, flags.prom_interval_ms, [&router, &tier] {
            return service_snapshot(router, tier.get());
          });
    }
    int rc = 0;
    if (flags.socket_port >= 0) {
      rc = serve_socket(flags.socket_port, flags.backlog, router, window,
                        tier.get());
    } else {
      serve_session(stdin, stdout, router, window, tier.get());
    }
    if (tier != nullptr) tier->stop();  // drain HTTP before the service goes down
    router.shutdown();
    dumper.reset();  // final dump sees the drained ledger
    if (!flags.metrics_file.empty()) {
      const service::ServiceStats stats = router.stats();
      obs::ExtraFields extra = {
          {"command", obs::json_quote("irserve")},
          {"accepted", std::to_string(stats.accepted)},
          {"rejected", std::to_string(stats.rejected())},
          {"executed_ok", std::to_string(stats.executed_ok)},
          {"deadline_misses", std::to_string(stats.deadline_misses)},
          {"batches", std::to_string(stats.batches)},
          {"coalesced_requests", std::to_string(stats.coalesced_requests)},
          {"peak_batch", std::to_string(stats.peak_batch)},
          {"plan_compiles", std::to_string(stats.plan_compiles)},
      };
      obs::write_metrics_file(flags.metrics_file, extra);
      std::fprintf(stderr, "metrics written to %s\n", flags.metrics_file.c_str());
    }
    return rc;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "irserve: %s\n", error.what());
    return 1;
  }
}
