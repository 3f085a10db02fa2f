// Serving workloads: the real irserve --http as a child process, driven over
// four keep-alive connections.
//
//   serve_repeat  8 distinct n=50k ordinary systems, each request ships the
//                 full system text; the server runs --plan-store --warm-start
//                 over a store filled before launch.
//   serve_fresh   no system repeats within a run: random ordinary (n=20k),
//                 chain (n=20k, the kScan route) and random general (n=1k,
//                 the CAP route) drawn 3:1:1; no plan store.  Request k is
//                 one of 40 base systems with four reads re-drawn from
//                 (seed, k), so every request is a distinct system while the
//                 client keeps only the bases in memory.
//
// A run: generate the base systems (untimed), launch the server three times
// for the setup median, then a warm-up phase (excluded), an open-loop phase
// at the workload's fixed rate (latency from the scheduled send), and a
// closed-loop goodput phase.  Afterwards every 200 reply's checksum= is
// compared with the sequential oracle's values_checksum for its system.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <thread>

#include "algebra/monoids.hpp"
#include "common.hpp"
#include "core/general_ir.hpp"
#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "core/serialize.hpp"
#include "core/solver.hpp"
#include "layers.hpp"
#include "net/http_client.hpp"
#include "net/http_parser.hpp"
#include "service/line_protocol.hpp"
#include "service/serve_op.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "verify/cost.hpp"

namespace perfbench {
namespace {

namespace core = ir::core;
namespace lp = ir::service::line_protocol;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kLaunches = 3;
constexpr std::uint64_t kModulus = 1'000'000'007ull;  // irserve's default --mod
constexpr std::size_t kPatches = 4;                   // reads re-drawn per fresh request
constexpr std::size_t kSetupBase = std::size_t{1} << 40;  // request numbers of the setup set
constexpr double kLoopEvery_s = 0.02;  // yardstick loop interval beside the open loop

ir::service::ServeOp serve_op() { return {ir::algebra::ModMulMonoid(kModulus), 0}; }

enum class Kind { kOrdinary, kChain, kGeneral };

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kOrdinary: return "ordinary";
    case Kind::kChain: return "chain";
    case Kind::kGeneral: return "general";
  }
  return "?";
}

/// serve_fresh's 3:1:1 mix by request number.
Kind kind_at(std::size_t k) {
  const std::size_t slot = k % 5;
  return slot < 3 ? Kind::kOrdinary : (slot == 3 ? Kind::kChain : Kind::kGeneral);
}

core::GeneralIrSystem random_ordinary(std::size_t n, std::size_t cells,
                                      ir::support::SplitMix64& rng) {
  core::GeneralIrSystem sys;
  sys.cells = cells;
  sys.g = ir::support::random_injection(n, cells, rng);
  sys.h = sys.g;
  sys.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.f[i] = (i > 0 && rng.chance(0.7)) ? sys.g[rng.below(i)] : rng.below(cells);
  }
  return sys;
}

/// A[i+1] := A[f(i)] ⊙ A[i+1] where f(i) = i continues the chain and, with
/// probability 1/2000, a not-yet-written cell starts a new segment: every
/// pred link is i-1 or none, the shape compile_plan routes to kScan.
core::GeneralIrSystem random_chain(std::size_t n, ir::support::SplitMix64& rng) {
  core::GeneralIrSystem sys;
  sys.cells = n + 1;
  sys.g.resize(n);
  sys.f.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.g[i] = i + 1;
    const bool restart = i + 2 <= n && rng.chance(1.0 / 2000.0);
    sys.f[i] = restart ? i + 2 + rng.below(n - i - 1) : i;
  }
  sys.h = sys.g;
  return sys;
}

/// Random general system: g may repeat, f/h rewired at earlier writes.
core::GeneralIrSystem random_general(std::size_t n, ir::support::SplitMix64& rng) {
  core::GeneralIrSystem sys;
  sys.cells = n;
  sys.g.resize(n);
  sys.f.resize(n);
  sys.h.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sys.g[i] = rng.below(n);
    auto pick = [&] { return (i > 0 && rng.chance(0.6)) ? sys.g[rng.below(i)] : rng.below(n); };
    sys.f[i] = pick();
    sys.h[i] = pick();
  }
  return sys;
}

std::uint64_t oracle_checksum(const core::GeneralIrSystem& sys) {
  return lp::values_checksum(
      core::general_ir_sequential(serve_op(), sys, lp::default_initial(sys.cells)));
}

/// A system the client ships, kept with its text and the byte offset of
/// every equation line so patched variants can be spliced cheaply.
struct Base {
  Kind kind = Kind::kOrdinary;
  core::GeneralIrSystem sys;
  std::string body;               ///< ir-system v1 document + ".\n"
  std::vector<std::size_t> line;  ///< start of equation i's line; [n] = end
  std::uint64_t checksum = 0;     ///< oracle of the unpatched system
  std::vector<double> loop_ms;    ///< sequential loop times (Traffic::time_loops_until)
};

Base make_base(Kind kind, core::GeneralIrSystem sys) {
  Base base;
  base.kind = kind;
  base.body = core::to_text(sys) + ".\n";
  std::size_t pos = 0;
  for (int header = 0; header < 3; ++header) pos = base.body.find('\n', pos) + 1;
  for (std::size_t i = 0; i <= sys.iterations(); ++i) {
    base.line.push_back(pos);
    if (i < sys.iterations()) pos = base.body.find('\n', pos) + 1;
  }
  base.checksum = oracle_checksum(sys);
  base.sys = std::move(sys);
  return base;
}

struct Patch {
  std::size_t i = 0;
  std::size_t f = 0;
};

/// What request k ships.  serve_repeat: base k mod 8, unchanged.
/// serve_fresh: a base of kind_at(k) with kPatches reads re-drawn, keeping
/// the kind's shape (ordinary stays injective, chains stay chains).
class Traffic {
 public:
  Traffic(std::vector<Base> bases, bool repeat, std::uint64_t seed)
      : bases_(std::move(bases)), repeat_(repeat), seed_(seed) {
    for (std::size_t b = 0; b < bases_.size(); ++b) {
      by_kind_[static_cast<int>(bases_[b].kind)].push_back(b);
    }
  }

  [[nodiscard]] const Base& base(std::size_t k) const { return bases_[base_index(k)]; }

  [[nodiscard]] std::string body(std::size_t k) const {
    const Base& b = base(k);
    std::vector<Patch> edits = patches(k);
    if (edits.empty()) return b.body;
    std::sort(edits.begin(), edits.end(), [](const Patch& x, const Patch& y) { return x.i < y.i; });
    std::string out;
    out.reserve(b.body.size() + 64);
    std::size_t pos = 0;
    for (const Patch& p : edits) {
      out.append(b.body, pos, b.line[p.i] - pos);
      out += std::to_string(p.f) + " " + std::to_string(b.sys.g[p.i]) + " " +
             std::to_string(b.sys.h[p.i]) + "\n";
      pos = b.line[p.i + 1];
    }
    out.append(b.body, pos, std::string::npos);
    return out;
  }

  [[nodiscard]] std::uint64_t checksum(std::size_t k) const {
    const Base& b = base(k);
    const std::vector<Patch> edits = patches(k);
    if (edits.empty()) return b.checksum;
    core::GeneralIrSystem sys = b.sys;
    for (const Patch& p : edits) sys.f[p.i] = p.f;
    return oracle_checksum(sys);
  }

  [[nodiscard]] std::size_t cells(std::size_t k) const { return base(k).sys.cells; }

  /// Time the sequential loop on one base after another, round-robin, every
  /// `every_s` seconds until stop is requested (and at least once per base).
  /// Runs beside the open-loop phase, so the yardstick sees the same machine
  /// state as the latencies it is divided by, as the library workloads time
  /// theirs between solves.  Round-robin, so every loop starts with another
  /// system's data in the caches, as each request does on the server.
  void time_loops_until(const std::stop_token& stop, double every_s) {
    const ir::service::ServeOp op = serve_op();
    for (std::size_t r = 0; r < bases_.size() || !stop.stop_requested(); ++r) {
      Base& b = bases_[r % bases_.size()];
      std::vector<std::uint64_t> in = lp::default_initial(b.sys.cells);
      const double t0 = now_s();
      (void)core::general_ir_sequential(op, b.sys, std::move(in));
      b.loop_ms.push_back((now_s() - t0) * 1e3);
      std::this_thread::sleep_for(std::chrono::duration<double>(every_s));
    }
  }

  /// Mean over the bases of their median loop time: the loop's time per
  /// request over the traffic mix (the bases are generated in mix
  /// proportions).
  [[nodiscard]] double loop_ms() const {
    double sum = 0.0;
    for (const Base& b : bases_) sum += median(b.loop_ms);
    return sum / static_cast<double>(bases_.size());
  }

 private:
  [[nodiscard]] std::size_t base_index(std::size_t k) const {
    if (repeat_) return k % bases_.size();
    const std::vector<std::size_t>& of_kind = by_kind_[static_cast<int>(kind_at(k))];
    return of_kind[(k / 5) % of_kind.size()];
  }

  [[nodiscard]] std::vector<Patch> patches(std::size_t k) const {
    if (repeat_) return {};
    const Base& b = base(k);
    const std::size_t n = b.sys.iterations();
    ir::support::SplitMix64 rng(seed_ * 0x9e3779b97f4a7c15ull + k * 0xbf58476d1ce4e5b9ull + 1);
    std::vector<Patch> out;
    while (out.size() < kPatches) {
      Patch p;
      p.i = rng.below(b.kind == Kind::kChain ? n - 1 : n);
      if (std::any_of(out.begin(), out.end(), [&p](const Patch& q) { return q.i == p.i; })) {
        continue;
      }
      const std::size_t old = b.sys.f[p.i];
      if (b.kind == Kind::kChain) {
        // Toggle between continuing the chain and restarting at a cell no
        // earlier iteration wrote.
        p.f = old == p.i ? p.i + 2 + rng.below(n - p.i - 1) : p.i;
      } else {
        p.f = rng.below(b.sys.cells);
        if (p.f == old) p.f = (p.f + 1) % b.sys.cells;
      }
      out.push_back(p);
    }
    return out;
  }

  std::vector<Base> bases_;
  bool repeat_;
  std::uint64_t seed_;
  std::vector<std::size_t> by_kind_[3];
};

// --- the server child process ----------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// irserve --http=0 as a child: stdin is its control channel (closing it
/// shuts the server down), stderr announces the chosen port.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args) {
    int in_pipe[2];
    int err_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
      ::close(in_pipe[0]);
      ::close(in_pipe[1]);
      throw std::runtime_error("pipe failed");
    }
    std::vector<std::string> argv_storage;
    argv_storage.push_back(binary);
    argv_storage.insert(argv_storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& arg : argv_storage) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: only async-signal-safe calls until exec.  The death signal
      // follows the forking thread, which is irbench's main thread.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      // stdout carries only control-channel replies ("bye"): keep them out
      // of the benchmark's own stdout.
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(in_pipe[0], STDIN_FILENO);
      ::dup2(err_pipe[1], STDERR_FILENO);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(err_pipe[1]);
    stdin_fd_ = in_pipe[1];
    stderr_fd_ = err_pipe[0];
    if (pid_ < 0) {
      ::close(stdin_fd_);
      ::close(stderr_fd_);
      throw std::runtime_error("fork failed");
    }
    try {
      port_ = wait_for_port();
    } catch (...) {
      stop();
      throw;
    }
    drain_ = std::thread([this] { drain(); });
  }

  ~ServerProcess() { stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }

  /// Peak resident set (VmHWM) in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::istringstream in(read_file("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
  }

  /// User + system CPU seconds so far.
  [[nodiscard]] double cpu_s() const {
    const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream in(stat.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; in >> field; ++i) {  // field 3 is the state
      if (i == 14 || i == 15) ticks += std::strtod(field.c_str(), nullptr);
      if (i == 15) break;
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// Ask the server to quit, wait for it (kill after 10 s), reap it.
  void stop() {
    if (pid_ <= 0) return;
    if (stdin_fd_ >= 0) {
      const char quit[] = "quit\n";
      (void)!::write(stdin_fd_, quit, sizeof(quit) - 1);
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 1000 && !reaped; ++i) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        reaped = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    pid_ = -1;
    if (drain_.joinable()) drain_.join();
    if (stderr_fd_ >= 0) {
      ::close(stderr_fd_);
      stderr_fd_ = -1;
    }
  }

 private:
  int wait_for_port() {
    const std::string marker = "http listening on 127.0.0.1:";
    std::string seen;
    const double deadline = now_s() + 60.0;
    while (now_s() < deadline) {
      pollfd pfd{stderr_fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready <= 0) continue;
      char buf[512];
      const ssize_t got = ::read(stderr_fd_, buf, sizeof(buf));
      if (got <= 0) break;
      seen.append(buf, static_cast<std::size_t>(got));
      const std::size_t at = seen.find(marker);
      if (at != std::string::npos && seen.find('\n', at) != std::string::npos) {
        return std::atoi(seen.c_str() + at + marker.size());
      }
    }
    throw std::runtime_error("irserve did not start: " + seen);
  }

  void drain() {
    char buf[512];
    while (::read(stderr_fd_, buf, sizeof(buf)) > 0) {
    }
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
  std::thread drain_;  // declared last: started after the fds it reads
};

// --- the load generator ------------------------------------------------------

enum class Phase { kSetup, kWarmup, kOpen, kClosed };

struct Sample {
  Phase phase = Phase::kWarmup;
  bool traced = false;
  std::size_t request = 0;   ///< traffic index k
  double scheduled_s = 0.0;  ///< open loop: when it was due; else = sent_s
  double sent_s = 0.0;
  double done_s = 0.0;
  int status = 0;            ///< HTTP status, -1 on a transport error
  bool ok_line = false;      ///< the body starts with an `ok` line
  std::uint64_t checksum = 0;
  std::uint64_t cells = 0;
  bool matched = false;      ///< 200 and the oracle agrees (set after the run)
  double wait_ms = 0.0;
  double exec_ms = 0.0;
  double batch = 0.0;
  std::size_t req_bytes = 0;
  std::size_t resp_bytes = 0;

  [[nodiscard]] double latency_ms() const { return (done_s - scheduled_s) * 1e3; }
  [[nodiscard]] double service_ms() const { return (done_s - sent_s) * 1e3; }
};

std::optional<std::uint64_t> reply_field(const std::string& line, const char* key) {
  const std::string needle = std::string(" ") + key + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Hands out request numbers start, start+1, ..., wrapping after `cycle`
/// when it is non-zero.
class RequestSource {
 public:
  RequestSource(std::size_t start, std::size_t cycle) : start_(start), cycle_(cycle) {}
  std::size_t next() {
    const std::size_t k = cursor_.fetch_add(1, std::memory_order_relaxed);
    return start_ + (cycle_ != 0 ? k % cycle_ : k);
  }

 private:
  std::size_t start_;
  std::size_t cycle_;
  std::atomic<std::size_t> cursor_{0};
};

class LoadGen {
 public:
  LoadGen(int port, const Traffic& traffic) : port_(port), traffic_(traffic) {}

  /// Send request k's prepared `body` on `client`; records a sample.
  Sample send(ir::net::HttpClient& client, std::size_t k, const std::string& body, Phase phase,
              double scheduled) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    Sample s;
    s.phase = phase;
    s.traced = tracing();
    s.request = k;
    s.req_bytes = body.size();
    ir::net::HttpClientResponse response;
    s.sent_s = now_s();
    s.scheduled_s = scheduled > 0.0 ? scheduled : s.sent_s;
    bool sent = false;
    {
      Span span("net.HttpClient::post", "net");
      sent = client.post("/v1/solve?id=" + std::to_string(id), body, &response);
    }
    s.done_s = now_s();
    if (!sent) {
      s.status = -1;
      return s;
    }
    s.status = response.status;
    s.resp_bytes = response.body.size();
    const std::string line = response.body.substr(0, response.body.find('\n'));
    if (s.status == 200 && line.rfind("ok ", 0) == 0) {
      s.ok_line = true;
      s.checksum = reply_field(line, "checksum").value_or(0);
      s.cells = reply_field(line, "cells").value_or(0);
      s.wait_ms = static_cast<double>(reply_field(line, "wait_us").value_or(0)) / 1e3;
      s.exec_ms = static_cast<double>(reply_field(line, "exec_us").value_or(0)) / 1e3;
      s.batch = static_cast<double>(reply_field(line, "batch").value_or(0));
    }
    return s;
  }

  /// Closed loop: every connection sends back to back for `seconds`.
  /// Returns the phase's wall time.
  double closed(double seconds, Phase phase, RequestSource& source) {
    const double start = now_s();
    const double deadline = start + seconds;
    run_connections([&](ir::net::HttpClient& client, std::size_t, std::vector<Sample>& out) {
      while (now_s() < deadline) {
        const std::size_t k = source.next();
        const std::string body = traffic_.body(k);
        out.push_back(send(client, k, body, phase, 0.0));
      }
    });
    return now_s() - start;
  }

  /// Open loop at `rate` per second over all connections: connection w sends
  /// on its own absolute schedule (interval connections/rate, offset w/rate);
  /// a send that comes due while the connection is busy goes out late and
  /// its latency still counts from when it was due.
  void open(double seconds, double rate, RequestSource& source) {
    const double start = now_s();
    const double deadline = start + seconds;
    const double interval = static_cast<double>(kConnections) / rate;
    run_connections([&](ir::net::HttpClient& client, std::size_t w, std::vector<Sample>& out) {
      double due = start + static_cast<double>(w) / rate;
      while (due < deadline) {
        const std::size_t k = source.next();
        const std::string body = traffic_.body(k);
        const double wait = due - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        out.push_back(send(client, k, body, Phase::kOpen, due));
        due += interval;
      }
    });
  }

  std::vector<Sample>& samples() { return samples_; }

 private:
  template <typename Body>
  void run_connections(Body&& body) {
    std::vector<std::vector<Sample>> per(kConnections);
    std::vector<std::thread> threads;
    threads.reserve(kConnections);
    for (std::size_t w = 0; w < kConnections; ++w) {
      threads.emplace_back([&, w] {
        ir::net::HttpClient client("127.0.0.1", static_cast<std::uint16_t>(port_),
                                   std::chrono::milliseconds(30'000));
        body(client, w, per[w]);
      });
    }
    for (auto& t : threads) t.join();
    for (auto& part : per) samples_.insert(samples_.end(), part.begin(), part.end());
  }

  int port_;
  const Traffic& traffic_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<Sample> samples_;
};

/// Counters from the server's Prometheus exposition.
std::map<std::string, double> scrape(int port) {
  ir::net::HttpClient client("127.0.0.1", static_cast<std::uint16_t>(port));
  ir::net::HttpClientResponse response;
  std::map<std::string, double> out;
  if (!client.get("/metrics", &response) || response.status != 200) return out;
  std::istringstream in(response.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.find('{') < space) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

double counter(const std::map<std::string, double>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

/// Temporary directory under the work dir, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    path_ = parent + "/serve-" + std::to_string(::getpid());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// In-process replay of the server's request path on exact request bytes:
/// net.parse_us, codec.*, plan.lookup_us / plan.compile_us, engine.*.
struct Replay {
  std::vector<double> parse_us, decode_us, key_us, lookup_us, compile_us, execute_us,
      format_us, table_mb, ops, rounds, work, steps, moved_bytes;
  CpuWindow cpu;
};

Replay replay(const Traffic& traffic, const std::vector<std::size_t>& requests,
              std::size_t reps) {
  Replay out;
  const ir::service::ServeOp op = serve_op();
  core::Solver cached;  // serves the lookups (a cache hit after its first compile)
  core::SolverConfig no_cache;
  no_cache.plan_cache_capacity = 0;
  core::Solver uncached(no_cache);  // every compile() is a miss
  for (const std::size_t k : requests) {
    const std::string body = traffic.body(k);
    const std::size_t cells = traffic.cells(k);
    const std::string raw = "POST /v1/solve?id=1 HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body;
    std::vector<double> parse, decode, key, lookup, compile, execute, format;
    core::GeneralIrSystem sys;
    for (std::size_t r = 0; r < reps; ++r) {
      double t0 = now_s();
      ir::net::HttpParser parser;
      {
        Span span("net.HttpParser::feed", "net");
        (void)parser.feed(raw);
      }
      parse.push_back(now_s() - t0);
      if (!parser.complete()) throw std::runtime_error("replay: request did not parse");
      const ir::net::HttpRequest& request = parser.request();

      t0 = now_s();
      {
        Span span("codec.decode", "core/serialize");
        std::string_view rest = request.body;
        std::string doc;
        (void)lp::take_document(rest, doc);
        sys = core::system_from_text(doc);
      }
      decode.push_back(now_s() - t0);

      t0 = now_s();
      {
        Span span("core.plan_cache_key", "core");
        (void)core::plan_cache_key(sys, core::PlanOptions{});
      }
      key.push_back(now_s() - t0);

      t0 = now_s();
      {
        Span span("core.Solver::compile[miss]", "core");
        (void)uncached.compile(sys, core::PlanOptions{});
      }
      compile.push_back(now_s() - t0);
    }
    (void)cached.compile(sys, core::PlanOptions{});
    std::shared_ptr<const core::Plan> plan;
    for (std::size_t r = 0; r < reps; ++r) {
      const double t0 = now_s();
      Span span("core.Solver::compile[hit]", "core");
      plan = cached.compile(sys, core::PlanOptions{});
      lookup.push_back(now_s() - t0);
    }
    std::vector<std::uint64_t> values;
    for (std::size_t r = 0; r < reps; ++r) {
      std::vector<std::uint64_t> in = lp::default_initial(cells);
      const double c0 = process_cpu_s(), t0c = thread_cpu_s(), t0 = now_s();
      {
        Span span("core.execute_plan", "core");
        values = core::execute_plan(*plan, op, std::move(in), core::ExecOptions{});
      }
      const double wall = now_s() - t0;
      out.cpu.add(wall, process_cpu_s() - c0, thread_cpu_s() - t0c);
      execute.push_back(wall);
    }
    if (lp::values_checksum(values) != traffic.checksum(k)) {
      throw std::runtime_error("replay: execute_plan disagrees with the oracle");
    }
    lp::Response response;
    response.status = ir::service::Status::kOk;
    response.info.engine = core::to_string(plan->engine);
    response.values = values;
    for (std::size_t r = 0; r < reps; ++r) {
      const double t0 = now_s();
      Span span("codec.format", "service/line_protocol");
      const std::string reply = lp::ok_line(1, response) + "\n" + lp::values_line(response.values);
      format.push_back(now_s() - t0);
    }

    core::OrdinaryIrStats ordinary;
    core::BlockedIrStats blocked;
    core::ExecOptions counted;
    counted.ordinary_stats = &ordinary;
    counted.blocked_stats = &blocked;
    (void)core::execute_plan(*plan, op, lp::default_initial(cells), counted);
    EngineCounts counts = engine_counts(ordinary, blocked);
    const ir::verify::CostReport cost = ir::verify::cost_plan(*plan);
    if (counts.ops == 0) counts.ops = static_cast<double>(cost.work);  // GIR: no exec stats
    const double table = plan_table_bytes(*plan);

    out.parse_us.push_back(median(parse) * 1e6);
    out.decode_us.push_back(median(decode) * 1e6);
    out.key_us.push_back(median(key) * 1e6);
    out.lookup_us.push_back(median(lookup) * 1e6);
    out.compile_us.push_back(median(compile) * 1e6);
    out.execute_us.push_back(median(execute) * 1e6);
    out.format_us.push_back(median(format) * 1e6);
    out.table_mb.push_back(table / 1e6);
    out.ops.push_back(counts.ops);
    out.rounds.push_back(counts.rounds);
    out.work.push_back(static_cast<double>(cost.work));
    out.steps.push_back(static_cast<double>(cost.steps));
    out.moved_bytes.push_back(table + 3.0 * static_cast<double>(cells * sizeof(std::uint64_t)));
  }
  return out;
}

}  // namespace

RunResult run_serving(const Options& options, const WorkloadSpec& spec) {
  const bool repeat = std::string(spec.name) == "serve_repeat";
  if (options.irserve.empty()) throw std::runtime_error("--irserve is required");
  ScratchDir scratch(options.work_dir);
  ir::support::SplitMix64 rng((repeat ? 0x5e7e0000ull : 0xf7e50000ull) + options.seed);

  // Untimed preparation: base systems and their oracles.
  std::vector<Base> bases;
  if (repeat) {
    const std::size_t n = options.quick ? 2'000 : 50'000;
    for (std::size_t b = 0; b < 8; ++b) {
      bases.push_back(make_base(Kind::kOrdinary, random_ordinary(n, n + n / 2, rng)));
    }
  } else {
    const std::size_t n = options.quick ? 2'000 : 20'000;
    const std::size_t general_n = options.quick ? 200 : 1'000;
    for (std::size_t b = 0; b < 8; ++b) {
      for (int slot = 0; slot < 3; ++slot) {
        bases.push_back(make_base(Kind::kOrdinary, random_ordinary(n, n + n / 2, rng)));
      }
      bases.push_back(make_base(Kind::kChain, random_chain(n, rng)));
      bases.push_back(make_base(Kind::kGeneral, random_general(general_n, rng)));
    }
  }
  Traffic traffic(std::move(bases), repeat, options.seed);
  // Each launch's setup ends once these have had their first reply.
  const std::size_t setup_start = repeat ? 0 : kSetupBase;
  const std::size_t setup_count = repeat ? 8 : 5;

  std::vector<std::string> args = {"--http=0"};
  const std::string store_dir = scratch.path() + "/store";
  if (repeat) {
    // Fill the store exactly as a previous server process would have: the
    // same decode path and plan options, written through the Solver.
    core::PlanStore store(store_dir);
    core::SolverConfig config;
    config.plan_store = &store;
    core::Solver solver(config);
    for (std::size_t k = 0; k < setup_count; ++k) {
      const std::string body = traffic.body(k);
      const std::string_view text = std::string_view(body).substr(0, body.size() - 2);
      (void)solver.compile(core::system_from_text(text), core::PlanOptions{});
    }
    args.push_back("--plan-store=" + store_dir);
    args.push_back("--warm-start");
  }

  // Setup: launch → every setup system has had its first reply; three times.
  std::vector<double> setup_s;
  std::vector<Sample> checked;  // setup and warm-up replies, verified with the rest
  std::unique_ptr<ServerProcess> server;
  for (std::size_t launch = 0; launch < kLaunches; ++launch) {
    std::vector<std::string> bodies;
    for (std::size_t j = 0; j < setup_count; ++j) bodies.push_back(traffic.body(setup_start + j));
    server.reset();
    const double t0 = now_s();
    server = std::make_unique<ServerProcess>(options.irserve, args);
    LoadGen first(server->port(), traffic);
    ir::net::HttpClient client("127.0.0.1", static_cast<std::uint16_t>(server->port()),
                               std::chrono::milliseconds(30'000));
    for (std::size_t j = 0; j < setup_count; ++j) {
      checked.push_back(first.send(client, setup_start + j, bodies[j], Phase::kSetup, 0.0));
    }
    setup_s.push_back(now_s() - t0);
  }

  // Timed phases on the last server.
  const double warm_s = options.seconds * 0.1;
  const double open_s = options.seconds * 0.45;
  const double closed_s = options.seconds * 0.45;
  {
    // Warm-up (excluded) cycles the setup systems, so serve_fresh's traffic
    // stays unseen until the measured phases.
    RequestSource warm_source(setup_start, setup_count);
    LoadGen warm(server->port(), traffic);
    warm.closed(warm_s, Phase::kWarmup, warm_source);
    checked.insert(checked.end(), warm.samples().begin(), warm.samples().end());
  }
  RequestSource source(0, repeat ? setup_count : 0);
  LoadGen load(server->port(), traffic);
  const auto metrics0 = scrape(server->port());
  const double cpu0 = server->cpu_s();
  const double phase0 = now_s();
  std::jthread yardstick(
      [&](const std::stop_token& stop) { traffic.time_loops_until(stop, kLoopEvery_s); });
  if (options.trace) {
    load.open(open_s / 2.0, spec.open_rps, source);
    set_tracing(true);
    load.open(open_s / 2.0, spec.open_rps, source);
  } else {
    load.open(open_s, spec.open_rps, source);
  }
  yardstick.request_stop();
  yardstick.join();
  const double closed_wall = load.closed(closed_s, Phase::kClosed, source);
  const double phase_wall = now_s() - phase0;
  const double server_cpu = server->cpu_s() - cpu0;
  const auto metrics1 = scrape(server->port());
  const double peak_rss = server->peak_rss_mb();
  server.reset();

  // Oracle check of every reply: setup, warm-up and measured.
  RunResult result;
  checked.insert(checked.end(), load.samples().begin(), load.samples().end());
  std::size_t measured = 0;
  for (Sample& s : checked) {
    if (s.phase == Phase::kOpen || s.phase == Phase::kClosed) ++measured;
    ++result.attempted;
    if (s.status == 200) {
      s.matched = s.ok_line && s.checksum == traffic.checksum(s.request) &&
                  s.cells == traffic.cells(s.request);
      if (!s.matched) result.correct = false;  // a 200 the oracle disagrees with
    }
    if (!s.matched) ++result.failed;
  }

  std::vector<double> open_ms, untraced_ms, traced_ms, late_ms, wait_ms, exec_ms, outside_ms,
      batch, req_kb, resp_kb;
  std::size_t good = 0;
  for (const Sample& s : checked) {
    if (s.phase == Phase::kOpen) {
      // A failed request misses every limit: it enters the percentiles as
      // an unbounded latency.
      const double ms = s.matched ? s.latency_ms() : 1e12;
      open_ms.push_back(ms);
      (s.traced ? traced_ms : untraced_ms).push_back(ms);
      late_ms.push_back(std::max(0.0, (s.sent_s - s.scheduled_s) * 1e3));
    } else if (s.phase == Phase::kClosed && s.matched && s.latency_ms() <= spec.limit_ms) {
      ++good;
    }
    if (s.matched && (s.phase == Phase::kOpen || s.phase == Phase::kClosed)) {
      wait_ms.push_back(s.wait_ms);
      exec_ms.push_back(s.exec_ms);
      outside_ms.push_back(s.service_ms() - s.wait_ms - s.exec_ms);
      batch.push_back(s.batch);
      req_kb.push_back(static_cast<double>(s.req_bytes) / 1024.0);
      resp_kb.push_back(static_cast<double>(s.resp_bytes) / 1024.0);
    }
  }
  if (open_ms.empty()) throw std::runtime_error("no open-loop samples");
  const double late_p99 = quantile(late_ms, 0.99);
  if (late_p99 > spec.limit_ms) {
    char why[200];
    std::snprintf(why, sizeof(why),
                  "invalid run: load generator ran late (loadgen.late_ms_p99 = %.1f ms > %.0f ms)",
                  late_p99, spec.limit_ms);
    throw std::runtime_error(why);
  }

  const double loop = traffic.loop_ms();
  const double goodput = closed_wall > 0.0 ? static_cast<double>(good) / closed_wall : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "samples %s: %zu open-loop at %.0f/s (tail = p%.0f), %zu measured requests, "
                "late p99 %.2f ms",
                spec.name, open_ms.size(), spec.open_rps, spec.tail_q * 100.0, measured,
                late_p99);
  result.report.push_back(line);
  if (!options.trace) {
    add_latency_metrics(result, spec, open_ms, median(setup_s), goodput, loop, peak_rss);
    return result;
  }

  // Per-layer probes: replay served requests in-process.
  std::vector<std::size_t> sample;
  for (std::size_t k = 0; k < (repeat ? 8u : 20u); ++k) sample.push_back(k);
  const Replay rp = replay(traffic, sample, repeat ? 3 : 1);
  double preload_ms = 0.0;
  if (repeat) {
    std::vector<double> preload;
    for (std::size_t r = 0; r < 3; ++r) {
      core::PlanStore store(store_dir);
      core::PlanCache cache(64);
      const double t0 = now_s();
      Span span("core.PlanStore::preload", "core");
      (void)store.preload(cache);
      preload.push_back((now_s() - t0) * 1e3);
    }
    preload_ms = median(preload);
  }

  const double execute_ms = mean(rp.execute_us) / 1e3;
  const double ops = mean(rp.ops);
  double gbps = 0.0;
  for (std::size_t k = 0; k < rp.moved_bytes.size(); ++k) {
    gbps += rp.moved_bytes[k] / (rp.execute_us[k] * 1e-6) / 1e9;
  }
  result.add("engine.execute_ms", execute_ms, "ms");
  result.add("engine.ops", ops, "count");
  result.add("engine.rounds", mean(rp.rounds), "count");
  result.add("engine.predicted_work", mean(rp.work), "count");
  result.add("engine.predicted_steps", mean(rp.steps), "count");
  result.add("engine.ns_per_op", ops > 0 ? execute_ms * 1e6 / ops : 0.0, "ns");
  result.add("engine.gbps_computed", gbps / static_cast<double>(rp.moved_bytes.size()), "GB/s");
  // The server executes singletons without a pool, so this is the same call.
  result.add("engine.execute_1t_ms", execute_ms, "ms");
  rp.cpu.report(result, 1);
  result.add("loop.seq_ms", loop, "ms");
  result.add("plan.compile_ms", mean(rp.compile_us) / 1e3, "ms");
  result.add("plan.table_mb", mean(rp.table_mb), "MB");
  result.add("plan.preload_ms", preload_ms, "ms");
  result.add("plan.lookup_us", mean(rp.lookup_us), "us");
  result.add("plan.compile_us", mean(rp.compile_us), "us");
  result.add("engine.execute_us", mean(rp.execute_us), "us");
  const double compiles = counter(metrics1, "ir_service_stats_plan_compiles") -
                          counter(metrics0, "ir_service_stats_plan_compiles");
  const std::string hits_suffix = "_plan_cache_hits";
  double hits = 0.0;
  for (const auto& [name, value] : metrics1) {
    if (name.rfind("ir_service_shard_", 0) == 0 && name.size() > hits_suffix.size() &&
        name.compare(name.size() - hits_suffix.size(), hits_suffix.size(), hits_suffix) == 0) {
      hits += value - counter(metrics0, name);
    }
  }
  const double lookups = hits + compiles;
  result.add("plan.compiles", compiles, "count");
  result.add("plan_cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio");
  result.add("plan_cache.lookups", lookups, "count");
  const double codec_us = mean(rp.decode_us) + mean(rp.key_us) + mean(rp.format_us);
  const double path_us = mean(rp.parse_us) + codec_us + mean(rp.lookup_us) + mean(rp.execute_us);
  result.add("codec.decode_us", mean(rp.decode_us), "us");
  result.add("codec.key_us", mean(rp.key_us), "us");
  result.add("codec.format_us", mean(rp.format_us), "us");
  result.add("codec.share", path_us > 0 ? codec_us / path_us : 0.0, "ratio");
  result.add("service.wait_ms_p50", median(wait_ms), "ms");
  result.add("service.exec_ms_p50", median(exec_ms), "ms");
  result.add("service.batch_mean", mean(batch), "count");
  const double nproc = static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  result.add("server.cpu_util", phase_wall > 0 ? server_cpu / (phase_wall * nproc) : 0.0,
             "ratio");
  result.add("net.parse_us", mean(rp.parse_us), "us");
  result.add("net.outside_ms_p50", median(outside_ms), "ms");
  result.add("net.req_kb", mean(req_kb), "KB");
  result.add("net.resp_kb", mean(resp_kb), "KB");
  result.add("loadgen.late_ms_p99", late_p99, "ms");
  result.add("fail_ratio",
             result.attempted > 0 ? static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted)
                                  : 0.0,
             "ratio");
  add_trace_overhead(result, untraced_ms, traced_ms);

  // The request ledger: replayed layers next to the measured latency.
  std::snprintf(line, sizeof(line),
                "ledger %s (ms): latency_ms_p50 %.3f | net.parse %.3f codec.decode %.3f "
                "codec.key %.3f plan.lookup %.3f engine.execute %.3f codec.format %.3f "
                "service.wait_p50 %.3f | net.outside_ms_p50 %.3f",
                spec.name, median(untraced_ms), mean(rp.parse_us) / 1e3,
                mean(rp.decode_us) / 1e3, mean(rp.key_us) / 1e3, mean(rp.lookup_us) / 1e3,
                mean(rp.execute_us) / 1e3, mean(rp.format_us) / 1e3, median(wait_ms),
                median(outside_ms));
  result.report.push_back(line);
  std::map<std::string, int> kinds;
  for (const std::size_t k : sample) ++kinds[kind_name(traffic.base(k).kind)];
  std::string mix = std::string("replayed ") + spec.name + ":";
  for (const auto& [kind, count] : kinds) mix += " " + kind + "=" + std::to_string(count);
  result.report.push_back(mix);
  return result;
}

}  // namespace perfbench
