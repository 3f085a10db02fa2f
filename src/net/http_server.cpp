#include "net/http_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace ir::net {

const char* status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

// ---------------------------------------------------------------- Responder

void Responder::send(HttpResponse response) const {
  server_->complete_request(conn_id_, std::move(response));
}

// --------------------------------------------------------------- WorkerPool

WorkerPool::WorkerPool(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() { stop(); }

void WorkerPool::submit(std::function<void()> job) {
  {
    support::LockGuard guard(mutex_);
    if (stopping_) return;  // shutdown already in progress; drop late work
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void WorkerPool::stop() {
  {
    support::LockGuard guard(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      support::UniqueLock lock(mutex_);
      while (jobs_.empty() && !stopping_) cv_.wait(lock);
      if (jobs_.empty()) return;  // stopping_ and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

// --------------------------------------------------------------- HttpServer

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The response as written to the socket, in a string of exactly its size:
/// the head is built first, so the body is copied once.
std::string serialize_response(const HttpResponse& response, bool keep_alive) {
  std::string head = "HTTP/1.1 ";
  head += std::to_string(response.status);
  head += ' ';
  head += status_reason(response.status);
  head += "\r\n";
  if (!response.content_type.empty()) {
    head += "Content-Type: ";
    head += response.content_type;
    head += "\r\n";
  }
  head += "Content-Length: ";
  head += std::to_string(response.body.size());
  head += "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    head += name;
    head += ": ";
    head += value;
    head += "\r\n";
  }
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  std::string out;
  out.reserve(head.size() + response.body.size());
  out += head;
  out += response.body;
  return out;
}

HttpResponse error_response(int status, const std::string& reason) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":\"" + reason + "\"}\n";
  response.close = true;
  return response;
}

}  // namespace

HttpServer::HttpServer(HttpServerConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {}

HttpServer::~HttpServer() { stop(); }

HttpServerStats HttpServer::stats() const noexcept {
  HttpServerStats out;
  out.accepted = stats_.accepted.load(std::memory_order_relaxed);
  out.rejected_overload = stats_.rejected_overload.load(std::memory_order_relaxed);
  out.requests = stats_.requests.load(std::memory_order_relaxed);
  out.responses = stats_.responses.load(std::memory_order_relaxed);
  out.parse_errors = stats_.parse_errors.load(std::memory_order_relaxed);
  out.timeouts = stats_.timeouts.load(std::memory_order_relaxed);
  out.closed = stats_.closed.load(std::memory_order_relaxed);
  out.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  out.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  out.open_connections = stats_.open_connections.load(std::memory_order_relaxed);
  return out;
}

bool HttpServer::start() {
  if (started_) return true;
  if (!loop_.valid()) {
    error_ = "event loop initialization failed";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad listen address '" + config_.host + "'";
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<::sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config_.backlog) != 0 || !set_nonblocking(listen_fd_)) {
    error_ = std::string("bind/listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  ::socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<::sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);

  workers_ = std::make_unique<WorkerPool>(std::max<std::size_t>(1, config_.workers));
  loop_.add_fd(listen_fd_, EPOLLIN, [this](std::uint32_t) { on_accept(); });
  loop_thread_ = std::thread([this] {
    loop_.run(config_.tick, [this] { on_tick(); });
  });
  started_ = true;
  return true;
}

void HttpServer::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  loop_.post([this] { begin_stop(Clock::now() + config_.drain_timeout); });
  if (loop_thread_.joinable()) loop_thread_.join();
  workers_->stop();
}

void HttpServer::begin_stop(Clock::time_point deadline) {
  stopping_ = true;
  stop_deadline_ = deadline;
  if (listen_fd_ >= 0) {
    loop_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Close every connection that is not mid-request; in-flight ones get to
  // finish their response until the drain deadline.
  std::vector<ConnPtr> idle;
  idle.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) {
    if (!conn->in_flight && conn->outbuf.size() == conn->out_off) idle.push_back(conn);
  }
  for (const auto& conn : idle) close_connection(conn);
  if (connections_.empty()) loop_.stop();
}

void HttpServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener error; tick/stop handles teardown
    }
    if (connections_.size() >= config_.max_connections) {
      stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->parser = HttpParser(config_.limits);
    conn->last_activity = Clock::now();
    connections_[conn->id] = conn;
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.open_connections.fetch_add(1, std::memory_order_relaxed);
    loop_.add_fd(fd, EPOLLIN,
                 [this, conn](std::uint32_t events) { on_event(conn, events); });
  }
}

void HttpServer::on_event(const ConnPtr& conn, std::uint32_t events) {
  if (conn->fd < 0) return;  // closed earlier this dispatch round
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    close_connection(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) flush_writes(conn);
  if (conn->fd >= 0 && (events & EPOLLIN) != 0) on_readable(conn);
}

void HttpServer::on_readable(const ConnPtr& conn) {
  char buf[16 * 1024];
  for (;;) {
    const ::ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      conn->inbuf.append(buf, static_cast<std::size_t>(n));
      conn->last_activity = Clock::now();
      continue;
    }
    if (n == 0) {
      // Peer closed its write side.  If a response is still owed or being
      // written, finish it; otherwise the connection is done.
      if (conn->in_flight || conn->outbuf.size() > conn->out_off) {
        conn->close_after_write = true;
        set_interest(conn, false, conn->want_write);
        return;
      }
      close_connection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn);
    return;
  }
  process_input(conn);
}

void HttpServer::process_input(const ConnPtr& conn) {
  while (conn->fd >= 0 && !conn->in_flight && !conn->close_after_write) {
    if (conn->inbuf.empty()) return;
    const std::size_t used = conn->parser.feed(conn->inbuf);
    conn->inbuf.erase(0, used);
    if (conn->parser.failed()) {
      stats_.parse_errors.fetch_add(1, std::memory_order_relaxed);
      queue_response(conn,
                     error_response(conn->parser.error_status(),
                                    conn->parser.error_reason()),
                     /*keep_alive=*/false);
      return;
    }
    if (!conn->parser.complete()) return;  // mid-request; need more bytes
    dispatch_request(conn);
  }
}

void HttpServer::dispatch_request(const ConnPtr& conn) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  HttpRequest request = conn->parser.take_request();
  conn->parser.reset();
  conn->in_flight = true;
  conn->req_keep_alive = request.keep_alive;
  // Reading pauses while the request is in flight: responses stay ordered
  // for pipelined clients and a burst cannot queue unbounded decoded work.
  set_interest(conn, false, conn->want_write);
  workers_->submit(
      [this, id = conn->id, request = std::move(request)]() mutable {
        handler_(std::move(request), Responder(this, id));
      });
}

void HttpServer::complete_request(std::uint64_t conn_id, HttpResponse response) {
  loop_.post([this, conn_id, response = std::move(response)] {
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;  // connection died first
    const ConnPtr conn = it->second;
    if (!conn->in_flight) return;  // duplicate send
    conn->in_flight = false;
    queue_response(conn, response, conn->req_keep_alive && !response.close);
  });
}

void HttpServer::queue_response(const ConnPtr& conn, const HttpResponse& response,
                                bool keep_alive) {
  stats_.responses.fetch_add(1, std::memory_order_relaxed);
  if (!keep_alive) conn->close_after_write = true;
  std::string wire = serialize_response(response, keep_alive);
  if (conn->outbuf.empty()) {
    conn->outbuf = std::move(wire);  // flush_writes zeroes out_off when it empties outbuf
  } else {
    conn->outbuf += wire;  // behind a response still being written
  }
  conn->last_activity = Clock::now();
  flush_writes(conn);
}

void HttpServer::flush_writes(const ConnPtr& conn) {
  while (conn->out_off < conn->outbuf.size()) {
    const ::ssize_t n = ::write(conn->fd, conn->outbuf.data() + conn->out_off,
                                conn->outbuf.size() - conn->out_off);
    if (n > 0) {
      stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                                 std::memory_order_relaxed);
      conn->out_off += static_cast<std::size_t>(n);
      conn->last_activity = Clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_interest(conn, false, true);  // wait for EPOLLOUT
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn);
    return;
  }
  // Drained.
  conn->outbuf.clear();
  conn->out_off = 0;
  if (conn->close_after_write || stopping_) {
    close_connection(conn);
    return;
  }
  set_interest(conn, true, false);
  process_input(conn);  // a pipelined next request may already be buffered
}

void HttpServer::set_interest(const ConnPtr& conn, bool read, bool write) {
  const bool paused = !read;
  if (conn->paused == paused && conn->want_write == write) return;
  conn->paused = paused;
  conn->want_write = write;
  std::uint32_t events = 0;
  if (read) events |= EPOLLIN;
  if (write) events |= EPOLLOUT;
  loop_.modify_fd(conn->fd, events);
}

void HttpServer::close_connection(const ConnPtr& conn) {
  if (conn->fd < 0) return;
  loop_.remove_fd(conn->fd);
  ::close(conn->fd);
  conn->fd = -1;
  connections_.erase(conn->id);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.open_connections.fetch_sub(1, std::memory_order_relaxed);
  if (stopping_ && connections_.empty()) loop_.stop();
}

void HttpServer::on_tick() {
  const auto now = Clock::now();
  std::vector<ConnPtr> victims;
  std::vector<ConnPtr> stalled;
  for (const auto& [id, conn] : connections_) {
    const auto idle = now - conn->last_activity;
    if (conn->outbuf.size() > conn->out_off) {
      if (idle > config_.write_timeout) victims.push_back(conn);
      continue;
    }
    if (conn->in_flight) continue;  // service-side deadlines govern
    if (!conn->parser.idle() || !conn->inbuf.empty()) {
      if (idle > config_.header_timeout) stalled.push_back(conn);
    } else if (idle > config_.idle_timeout) {
      victims.push_back(conn);
    }
  }
  for (const auto& conn : victims) {
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    close_connection(conn);
  }
  for (const auto& conn : stalled) {
    // Slow client mid-request: answer 408 and close (the write is best
    // effort; flush_writes closes on error anyway).
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    queue_response(conn, error_response(408, "request timed out"),
                   /*keep_alive=*/false);
  }
  if (stopping_) {
    if (connections_.empty()) {
      loop_.stop();
    } else if (now >= stop_deadline_) {
      std::vector<ConnPtr> all;
      all.reserve(connections_.size());
      for (const auto& [id, conn] : connections_) all.push_back(conn);
      for (const auto& conn : all) close_connection(conn);
    }
  }
}

}  // namespace ir::net
