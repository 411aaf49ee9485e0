// Live status endpoint: a deliberately tiny single-threaded HTTP/1.0 server
// over plain POSIX sockets (ISSUE 7 tentpole). No third-party deps — the
// request surface is "GET <path>", the response surface is a string body
// with a Content-Length, and that is everything Prometheus scrapes and
// tools/gravel_top.py need.
//
// Routes are provided by the embedder (the Cluster) as a callback, so this
// header stays in the obs layer (gravel_common only) while /status content
// comes from runtime state. The Cluster serves:
//   /metrics  Prometheus text exposition of the current MetricsSnapshot
//             (writePrometheusText below, unit-testable without sockets)
//   /status   JSON: membership, breakers, DLQ, latency gauges, watchdog
//   /timeseries  recent collector windows (gravel-top rate columns)
//   /profile  JSON: profiler threads/paths + lock-contention table
// and the server itself answers /healthz (200 "ok\n") before dispatching
// to the embedder — a liveness probe that never pays for a snapshot.
//
// Lifecycle: start() binds (port 0 = ephemeral; port() reports the actual
// choice so tests need no fixed port) and spawns one service thread that
// poll()s the listening socket with a 50 ms timeout, so stop() latency is
// bounded without signals. One request per connection, serviced serially —
// a scrape every few seconds from one or two clients, not a web server.
//
// gravel-lint: cold-path — runs on the scrape thread at human cadence;
// its atomics (stop/running flags) never touch a message path.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "common/atomic.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define GRAVEL_STATUS_SERVER_SUPPORTED 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define GRAVEL_STATUS_SERVER_SUPPORTED 0
#endif

namespace gravel::obs {

/// Exporter knobs, embedded in ClusterConfig as `config.status_server`.
/// GRAVEL_STATUS_PORT=<port> enables it at Cluster construction.
struct StatusServerConfig {
  bool enabled = false;

  /// TCP port; 0 binds an ephemeral port (tests read it back via port()).
  std::uint16_t port = 0;

  /// Bind address. Loopback by default: this endpoint is a debugging
  /// surface, not a hardened service.
  std::string bind_address = "127.0.0.1";
};

// ---------------------------------------------------------------------------
// Prometheus text exposition (format version 0.0.4)
// ---------------------------------------------------------------------------

namespace detail {

/// Prometheus metric names admit [a-zA-Z0-9_:] only; our dotted names
/// ("gpu_queue.depth") mangle dots (and anything else) to underscores and
/// gain a `gravel_` namespace prefix.
inline std::string promName(const std::string& name) {
  std::string out = "gravel_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

inline std::string promLabelKey(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
    out.insert(out.begin(), '_');
  return out;
}

inline std::string promEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// Registry labels are free-form "k=v,k=v" strings ("node=0",
/// "link=0->1,dest=2"); rendered as {k="v",...}. A fragment without '=' is
/// kept under a catch-all `label` key rather than dropped.
inline std::string promLabels(const std::string& labels,
                              const std::string& extra = "") {
  std::string inner;
  auto append = [&inner](const std::string& frag) {
    if (frag.empty()) return;
    if (!inner.empty()) inner += ',';
    const std::size_t eq = frag.find('=');
    if (eq == std::string::npos) {
      inner += "label=\"" + promEscape(frag) + "\"";
    } else {
      inner += promLabelKey(frag.substr(0, eq)) + "=\"" +
               promEscape(frag.substr(eq + 1)) + "\"";
    }
  };
  std::size_t start = 0;
  while (start <= labels.size()) {
    const std::size_t comma = labels.find(',', start);
    const std::size_t end = comma == std::string::npos ? labels.size() : comma;
    append(labels.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (!extra.empty()) {
    if (!inner.empty()) inner += ',';
    inner += extra;
  }
  return inner.empty() ? "" : "{" + inner + "}";
}

inline void promNumber(std::ostream& os, double v) {
  if (std::isnan(v)) {
    os << "NaN";
  } else if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  }
}

}  // namespace detail

/// Serializes a snapshot in Prometheus text exposition format.
///
/// Kind mapping:
///   counter    -> counter
///   gauge      -> gauge
///   stat       -> summary (_count/_sum) plus _min/_max gauges
///   histogram  -> histogram with cumulative le buckets. Pow2 bucket 0 holds
///                 exactly {0} (le="0"); bucket i >= 1 covers [2^(i-1), 2^i),
///                 so the cumulative bound after bucket i is le="2^i - 1"
///                 (samples are integers). _sum is estimated from bucket
///                 midpoints, as any pow2 sketch must.
inline void writePrometheusText(std::ostream& os, const MetricsSnapshot& s) {
  std::string lastTyped;  // map order makes equal names adjacent
  auto typeLine = [&](const std::string& name, const char* type) {
    if (name == lastTyped) return;
    lastTyped = name;
    os << "# TYPE " << name << ' ' << type << '\n';
  };
  for (const auto& [key, m] : s.metrics) {
    const std::string name = detail::promName(key.first);
    const std::string labels = detail::promLabels(key.second);
    switch (m.kind) {
      case MetricKind::kCounter:
        typeLine(name, "counter");
        os << name << labels << ' ' << m.count << '\n';
        break;
      case MetricKind::kGauge:
        typeLine(name, "gauge");
        os << name << labels << ' ';
        detail::promNumber(os, m.value);
        os << '\n';
        break;
      case MetricKind::kStat:
        typeLine(name, "summary");
        os << name << "_count" << labels << ' ' << m.count << '\n';
        os << name << "_sum" << labels << ' ';
        detail::promNumber(os, m.value);
        os << '\n';
        if (m.count) {
          os << name << "_min" << labels << ' ';
          detail::promNumber(os, m.min);
          os << '\n' << name << "_max" << labels << ' ';
          detail::promNumber(os, m.max);
          os << '\n';
        }
        break;
      case MetricKind::kHistogram: {
        typeLine(name, "histogram");
        std::size_t last = m.buckets.size();
        while (last > 0 && m.buckets[last - 1] == 0) --last;
        std::uint64_t cum = 0;
        double sum = 0;
        for (std::size_t i = 0; i < last; ++i) {
          cum += m.buckets[i];
          if (i == 0) {
            sum += 0;  // bucket 0 holds exactly {0}
          } else {
            const double lo = std::ldexp(1.0, int(i) - 1);
            sum += double(m.buckets[i]) * lo * 1.5;
          }
          os << name << "_bucket" << detail::promLabels(
              key.second, i == 0 ? std::string("le=\"0\"")
                                 : "le=\"" +
                                       std::to_string(
                                           (std::uint64_t{1} << i) - 1) +
                                       "\"");
          os << ' ' << cum << '\n';
        }
        os << name << "_bucket"
           << detail::promLabels(key.second, "le=\"+Inf\"") << ' ' << m.count
           << '\n';
        os << name << "_count" << labels << ' ' << m.count << '\n';
        os << name << "_sum" << labels << ' ';
        detail::promNumber(os, sum);
        os << '\n';
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HTTP server
// ---------------------------------------------------------------------------

/// What a route handler returns.
struct StatusResponse {
  int code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Maps a request path ("/metrics") to a response. Runs on the service
/// thread; the Cluster's handler snapshots registry/membership state, so it
/// must be callable concurrently with the run.
using StatusHandler = std::function<StatusResponse(const std::string& path)>;

class StatusServer {
 public:
  StatusServer(const StatusServerConfig& config, StatusHandler handler)
      : config_(config), handler_(std::move(handler)) {}

  ~StatusServer() { stop(); }

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// True when this build can serve (POSIX sockets available).
  static constexpr bool supported() noexcept {
    return GRAVEL_STATUS_SERVER_SUPPORTED != 0;
  }

  /// Binds + listens + spawns the service thread. Returns false (with no
  /// thread started) when the port cannot be bound or the platform has no
  /// sockets; the embedder logs and runs on — telemetry must never take
  /// down the workload.
  bool start() {
#if GRAVEL_STATUS_SERVER_SUPPORTED
    // pairs-with: status.running
    if (running_.load(std::memory_order_acquire)) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      closeListener();
      return false;
    }
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 8) != 0) {
      closeListener();
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
      port_ = ntohs(bound.sin_port);
    stop_.store(false, std::memory_order_release);  // pairs-with: status.stop
    running_.store(true, std::memory_order_release);  // pairs-with: status.running
    thread_ = std::thread([this] { serviceLoop(); });
    return true;
#else
    return false;
#endif
  }

  void stop() {
#if GRAVEL_STATUS_SERVER_SUPPORTED
    if (!running_.load(std::memory_order_acquire)) return;
    stop_.store(true, std::memory_order_release);  // pairs-with: status.stop
    if (thread_.joinable()) thread_.join();
    closeListener();
    running_.store(false, std::memory_order_release);  // pairs-with: status.running
#endif
  }

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// The actually-bound port (differs from config when config.port == 0).
  std::uint16_t port() const noexcept { return port_; }

  std::uint64_t requestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
#if GRAVEL_STATUS_SERVER_SUPPORTED
  void closeListener() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void serviceLoop() {
    while (!stop_.load(std::memory_order_acquire)) {  // pairs-with: status.stop
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 50);  // bounded stop() latency
      if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
      const int client = ::accept(fd_, nullptr, nullptr);
      if (client < 0) continue;
      serveOne(client);
      ::close(client);
    }
  }

  void serveOne(int client) {
    // One read is enough for "GET /path HTTP/1.x": every client we care
    // about sends the request line in a single small packet.
    char buf[2048];
    const ssize_t n = ::recv(client, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return;
    buf[n] = '\0';
    std::string_view req(buf, std::size_t(n));
    StatusResponse resp;
    if (req.substr(0, 4) != "GET ") {
      resp = {405, "text/plain; charset=utf-8", "method not allowed\n"};
    } else {
      const std::size_t pathStart = 4;
      std::size_t pathEnd = req.find(' ', pathStart);
      if (pathEnd == std::string_view::npos) pathEnd = req.size();
      std::string path(req.substr(pathStart, pathEnd - pathStart));
      const std::size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
      // Liveness probe answered here, before the embedder's handler: a
      // load balancer / CI health check must get its 200 without paying
      // for (or depending on) a registry snapshot.
      if (path == "/healthz")
        resp = {200, "text/plain; charset=utf-8", "ok\n"};
      else
        resp = handler_ ? handler_(path)
                        : StatusResponse{404, "text/plain; charset=utf-8",
                                         "no handler\n"};
    }
    sendResponse(client, resp);
    requests_.fetch_add(1, std::memory_order_relaxed);
  }

  static void sendResponse(int client, const StatusResponse& resp) {
    std::ostringstream head;
    head << "HTTP/1.0 " << resp.code << ' ' << reasonPhrase(resp.code)
         << "\r\nContent-Type: " << resp.content_type
         << "\r\nContent-Length: " << resp.body.size()
         << "\r\nConnection: close\r\n\r\n";
    const std::string headStr = head.str();
    sendAll(client, headStr.data(), headStr.size());
    sendAll(client, resp.body.data(), resp.body.size());
  }

  static void sendAll(int client, const char* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const ssize_t n = ::send(client, data + off, size - off, 0);
      if (n <= 0) return;
      off += std::size_t(n);
    }
  }

  static const char* reasonPhrase(int code) noexcept {
    switch (code) {
      case 200: return "OK";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 500: return "Internal Server Error";
    }
    return "OK";
  }
#endif

  StatusServerConfig config_;
  StatusHandler handler_;
  std::thread thread_;
  atomic<bool> running_{false};
  atomic<bool> stop_{false};
  atomic<std::uint64_t> requests_{0};
  std::uint16_t port_ = 0;
  int fd_ = -1;
};

}  // namespace gravel::obs
