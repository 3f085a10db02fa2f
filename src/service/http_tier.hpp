// The multi-tenant HTTP serving tier (docs/http.md).
//
// Wires the stack together:
//
//   net::HttpServer ─▶ authenticate (TenantRegistry, X-API-Key)
//                   ─▶ rate limit  (TokenBucket → 429, pre-queue)
//                   ─▶ fair share  (QosScheduler, DRR by tenant weight)
//                   ─▶ ShardRouter (consistent-hash by plan_cache_key)
//                   ─▶ Server<Op>  (admission, coalescing, wide execution)
//
// Endpoints:
//   POST /v1/solve   body = ir-system v1 document "."-terminated (and, with
//                    ?values=inline, an ir-values document "."-terminated);
//                    query attrs id/deadline_ms/engine/values mirror the
//                    newline solve command.  The response body is the
//                    protocol's `ok` + `values` lines (or `error` line) —
//                    byte-identical payloads across transports by
//                    construction (service/line_protocol.hpp).
//   GET  /v1/stats   the one-line stats v2 reply
//   GET  /metrics    Prometheus text exposition (service + tier counters)
//   GET  /healthz    "ok"
//
// HTTP status mapping: kOk 200 · kRejectedInvalid 400 · queue-full /
// backpressure / shutdown 503 · kDeadlineExpired 504 · kCancelled 499 ·
// kFailed 500 · rate-limited 429 (tier-level, before the service ever sees
// the request) · unknown key 401.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/http_parser.hpp"
#include "net/http_server.hpp"
#include "obs/prometheus_export.hpp"
#include "obs/registry.hpp"
#include "service/line_protocol.hpp"
#include "service/qos.hpp"
#include "service/tenant.hpp"

namespace ir::service {

/// HTTP status a terminal service Status maps to.
[[nodiscard]] inline int http_status_for(Status status) noexcept {
  switch (status) {
    case Status::kOk: return 200;
    case Status::kRejectedInvalid: return 400;
    case Status::kRejectedQueueFull:
    case Status::kRejectedBackpressure:
    case Status::kRejectedShutdown: return 503;
    case Status::kDeadlineExpired: return 504;
    case Status::kCancelled: return 499;
    case Status::kFailed: return 500;
  }
  return 500;
}

struct HttpTierConfig {
  net::HttpServerConfig http;
  QosScheduler::Config qos;
  std::vector<TenantSpec> tenants;  ///< empty = open access (docs/http.md)
};

/// `Router` is ShardRouter<Op> (or anything with the same submit_callback /
/// stats / shard_count / shard_stats surface) over Value = uint64_t.
template <typename Router>
class HttpTier {
 public:
  using Response = typename Router::Response;

  /// `snapshot_fn` produces the base metrics snapshot (the embedder's
  /// service_snapshot); the tier layers its own http/tenant/qos/shard
  /// counters on top for /metrics.  `window` backs the stats v2 line's
  /// win_* fields.  All three references are borrowed and must outlive the
  /// tier.
  HttpTier(Router& router, HttpTierConfig config, obs::ScrapeWindow& window,
           std::function<obs::MetricsSnapshot()> snapshot_fn)
      : router_(router),
        config_(std::move(config)),
        window_(window),
        snapshot_fn_(std::move(snapshot_fn)),
        registry_(config_.tenants),
        qos_(tenant_weights(registry_), config_.qos),
        server_(config_.http, [this](net::HttpRequest&& request,
                                     net::Responder responder) {
          handle(std::move(request), std::move(responder));
        }) {}

  ~HttpTier() { stop(); }

  [[nodiscard]] bool start() { return server_.start(); }

  /// Stop accepting, drain in-flight HTTP requests, then wait for every
  /// QoS-queued job to complete through the router.  Idempotent.
  void stop() {
    server_.stop();
    qos_.wait_idle();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] const std::string& error() const noexcept { return server_.error(); }

  [[nodiscard]] TenantRegistry& tenants() noexcept { return registry_; }
  [[nodiscard]] QosScheduler& qos() noexcept { return qos_; }
  [[nodiscard]] net::HttpServerStats http_stats() const noexcept {
    return server_.stats();
  }

  /// The tier's own counters, layered onto a snapshot (the same entries
  /// /metrics exposes — embedders reuse this for file exposition).
  void merge_metrics(obs::MetricsSnapshot& snap) const {
    const net::HttpServerStats http = server_.stats();
    snap.counters["http.accepted"] = http.accepted;
    snap.counters["http.rejected_overload"] = http.rejected_overload;
    snap.counters["http.requests"] = http.requests;
    snap.counters["http.responses"] = http.responses;
    snap.counters["http.parse_errors"] = http.parse_errors;
    snap.counters["http.timeouts"] = http.timeouts;
    snap.counters["http.closed"] = http.closed;
    snap.counters["http.bytes_in"] = http.bytes_in;
    snap.counters["http.bytes_out"] = http.bytes_out;
    snap.gauges["http.open_connections"] = http.open_connections;
    snap.gauges["service.qos.inflight"] = qos_.inflight();

    const auto qos_counters = qos_.counters();
    for (std::size_t i = 0; i < registry_.size(); ++i) {
      const std::string prefix = "service.tenant." + registry_.tenant(i).name();
      const Tenant::Counters c = registry_.tenant(i).counters();
      snap.counters[prefix + ".requests"] = c.requests;
      snap.counters[prefix + ".admitted"] = c.admitted;
      snap.counters[prefix + ".rate_limited"] = c.rate_limited;
      snap.counters[prefix + ".queue_rejected"] = c.queue_rejected;
      snap.counters[prefix + ".completed_ok"] = c.completed_ok;
      snap.counters[prefix + ".completed_error"] = c.completed_error;
      if (i < qos_counters.size()) {
        snap.counters[prefix + ".qos_enqueued"] = qos_counters[i].enqueued;
        snap.counters[prefix + ".qos_dispatched"] = qos_counters[i].dispatched;
        snap.gauges[prefix + ".qos_peak_depth"] = qos_counters[i].peak_depth;
      }
    }
    for (std::size_t s = 0; s < router_.shard_count(); ++s) {
      const ServiceStats stats = router_.shard_stats(s);
      const std::string prefix = "service.shard." + std::to_string(s);
      snap.counters[prefix + ".accepted"] = stats.accepted;
      snap.counters[prefix + ".executed_ok"] = stats.executed_ok;
      snap.counters[prefix + ".batches"] = stats.batches;
      snap.counters[prefix + ".coalesced_requests"] = stats.coalesced_requests;
      snap.counters[prefix + ".plan_compiles"] = stats.plan_compiles;
      snap.counters[prefix + ".plan_cache_hits"] = stats.plan_cache_hits;
      snap.gauges[prefix + ".queue_depth"] = stats.queue_depth;
    }
  }

 private:
  static std::vector<std::uint64_t> tenant_weights(const TenantRegistry& registry) {
    std::vector<std::uint64_t> weights;
    weights.reserve(registry.size());
    for (std::size_t i = 0; i < registry.size(); ++i) {
      weights.push_back(registry.tenant(i).spec().weight);
    }
    return weights;
  }

  static net::HttpResponse text_response(int status, std::string body) {
    net::HttpResponse response;
    response.status = status;
    response.content_type = "text/plain";
    response.body = std::move(body);
    return response;
  }

  void handle(net::HttpRequest&& request, net::Responder responder) {
    if (request.path == "/healthz") {
      responder.send(text_response(200, "ok\n"));
      return;
    }
    if (request.path == "/metrics") {
      if (request.method != "GET") {
        responder.send(text_response(405, "method not allowed\n"));
        return;
      }
      obs::MetricsSnapshot snap = snapshot_fn_();
      merge_metrics(snap);
      net::HttpResponse response;
      response.content_type = "text/plain; version=0.0.4";
      response.body = obs::prometheus_text(snap);
      responder.send(std::move(response));
      return;
    }
    if (request.path == "/v1/stats") {
      if (request.method != "GET") {
        responder.send(text_response(405, "method not allowed\n"));
        return;
      }
      responder.send(text_response(
          200, line_protocol::stats_v2_line(router_.stats(), window_) + "\n"));
      return;
    }
    if (request.path == "/v1/solve") {
      if (request.method != "POST") {
        responder.send(text_response(405, "method not allowed\n"));
        return;
      }
      handle_solve(std::move(request), std::move(responder));
      return;
    }
    responder.send(text_response(404, "not found\n"));
  }

  void handle_solve(net::HttpRequest&& request, net::Responder responder) {
    // Authenticate first: rate limits and fair share are per-tenant, so
    // nothing else is decidable without an identity.
    const std::string* key_header = request.header("x-api-key");
    Tenant* tenant =
        registry_.authenticate(key_header != nullptr ? *key_header : std::string());
    if (tenant == nullptr) {
      responder.send(text_response(401, "unknown api key\n"));
      return;
    }
    tenant->count_request();

    // Token bucket before queueing: an over-rate tenant is answered from
    // the doorstep, spending no queue slot and no dispatcher time.
    if (!tenant->bucket().try_take()) {
      tenant->count_rate_limited();
      net::HttpResponse response = text_response(
          429, line_protocol::error_line(0, Status::kRejectedBackpressure,
                                         "tenant '" + tenant->name() +
                                             "' over rate limit") +
                   "\n");
      response.extra_headers.emplace_back("Retry-After", "1");
      responder.send(std::move(response));
      return;
    }

    // Decode attributes (the HTTP spelling of the solve command line).
    line_protocol::SolveArgs args;
    std::string attr_error;
    bool bad = false;
    for (const char* attr : {"id", "deadline_ms", "engine", "values"}) {
      bool present = false;
      const std::string value = request.query_param(attr, &present);
      if (present &&
          !line_protocol::apply_solve_attr(attr, value, &args, &attr_error)) {
        bad = true;
        break;
      }
    }
    if (bad) {
      responder.send(text_response(
          400, line_protocol::error_line(args.id, Status::kRejectedInvalid,
                                         attr_error) +
                   "\n"));
      return;
    }

    // Decode the body where it lies.  Only a body with a CR is copied, into
    // the string form, which drops line-end CRs as the newline transport
    // does: the readers trim them too, but the message for an implausible
    // count names the document's size, which must not count them.
    std::string_view rest = request.body;
    const bool has_cr = rest.find('\r') != std::string_view::npos;
    std::string_view sys_doc;
    std::string_view values_doc;
    std::string copies[2];
    const auto take = [&rest, has_cr](std::string_view& doc, std::string& copy) {
      if (!has_cr) return line_protocol::take_document(rest, doc);
      const bool found = line_protocol::take_document(rest, copy);
      doc = copy;
      return found;
    };
    if (!take(sys_doc, copies[0]) ||
        (args.inline_values && !take(values_doc, copies[1]))) {
      responder.send(text_response(
          400, line_protocol::error_line(args.id, Status::kRejectedInvalid,
                                         "eof-before-terminator") +
                   "\n"));
      return;
    }

    typename Router::Request solve;
    try {
      line_protocol::fill_request(args, sys_doc, values_doc, &solve);
    } catch (const std::exception& error) {
      responder.send(text_response(
          400, line_protocol::error_line(args.id, Status::kRejectedInvalid,
                                         error.what()) +
                   "\n"));
      return;
    }

    // Fair-share queueing: the job is the non-blocking submit into the
    // router; completion flows back through the responder and releases the
    // QoS inflight slot.
    const std::uint64_t id = args.id;
    auto job = [this, solve = std::move(solve), tenant, id, responder]() mutable {
      router_.submit_callback(
          std::move(solve), [this, tenant, id, responder](Response&& result) {
            tenant->count_completed(result.ok());
            net::HttpResponse http;
            http.status = http_status_for(result.status);
            http.content_type = "text/plain";
            if (result.ok()) {
              http.body = line_protocol::ok_reply(id, result);
            } else {
              http.body =
                  line_protocol::error_line(id, result.status, result.error) + "\n";
            }
            responder.send(std::move(http));
            qos_.on_complete();
          });
    };
    if (!qos_.try_enqueue(tenant->index(), std::move(job))) {
      tenant->count_queue_rejected();
      responder.send(text_response(
          503, line_protocol::error_line(id, Status::kRejectedQueueFull,
                                         "tenant '" + tenant->name() +
                                             "' queue at capacity") +
                   "\n"));
      return;
    }
    tenant->count_admitted();
  }

  Router& router_;
  HttpTierConfig config_;
  obs::ScrapeWindow& window_;
  std::function<obs::MetricsSnapshot()> snapshot_fn_;
  TenantRegistry registry_;
  QosScheduler qos_;
  net::HttpServer server_;
};

}  // namespace ir::service
