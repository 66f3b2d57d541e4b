// csmt::net — the shared loopback HTTP component (DESIGN.md §15).
//
// Two layers ride on it: the telemetry endpoint (src/telemetry/server.hpp,
// read-only GET + SSE streaming) and the sweep-service coordinator
// (src/svc/coordinator.hpp, a JSON request/response protocol with POST
// bodies). Both need the same plumbing — bind 127.0.0.1, accept loop,
// per-connection handler threads reaped without blocking, orderly stop that
// unblocks streaming handlers — so it lives here once.
//
// The server is deliberately minimal: HTTP/1.1, loopback only, one request
// per connection ("Connection: close"), bodies bounded by kMaxRequestBytes,
// connections bounded by kMaxConnections and kReadTimeoutMs.
// That is exactly the operational surface the repo needs (localhost fleet
// console + coordinator/worker RPC on one host or a trusted LAN via SSH
// port-forwarding) and nothing more.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace csmt::net {

/// Largest accepted request (head + body). Submissions of 10^4-point grids
/// are a few MB of spec JSON; 64 MB leaves an order of magnitude of slack.
constexpr std::size_t kMaxRequestBytes = 64u << 20;

// Each served connection holds a thread for its lifetime, so neither a flood
// of connections nor sockets that never finish their request may pile
// threads up without bound.

/// Connections one HttpServer serves at once. One more is answered 503 and
/// closed without a thread. Parked /lease long polls (one per worker) and a
/// client's request bursts stay far below it.
constexpr std::size_t kMaxConnections = 256;

/// Longest a client may take to deliver its whole request, from accept. A
/// socket still short of it then is answered 408 and closed.
constexpr int kReadTimeoutMs = 10'000;

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as received)
  std::string path;    ///< path component only, query string split off
  std::string query;   ///< text after '?' (without the '?'), may be empty
  std::string body;    ///< Content-Length bytes (empty for bodyless GETs)
};

/// One accepted connection, passed to the handler. A handler either calls
/// respond() once (normal request/response) or streams with send_raw()
/// until it fails or stopping() flips (SSE). The socket is shut down and
/// reaped by the server after the handler returns.
class ClientConn {
 public:
  /// Full response with standard headers (CORS wide open — the endpoints
  /// carry loopback-only operational data and the static fleet-console
  /// page must work straight off the filesystem).
  bool respond(const char* status, const char* content_type,
               const std::string& body);
  /// Raw bytes (streaming responses write their own header). False once
  /// the peer is gone.
  bool send_raw(const std::string& bytes);
  bool send_raw(const char* data, std::size_t n);
  /// True once the server is stopping; long-lived handlers must return.
  bool stopping() const { return stopping_.load(); }

 private:
  friend class HttpServer;
  ClientConn(int fd, const std::atomic<bool>& stopping)
      : fd_(fd), stopping_(stopping) {}

  int fd_;
  const std::atomic<bool>& stopping_;
};

/// Builds a complete HTTP/1.1 response (status line, Content-Type,
/// Content-Length, permissive CORS, Connection: close).
std::string http_response(const char* status, const char* content_type,
                          const std::string& body);

class HttpServer {
 public:
  /// Called on a dedicated thread per accepted request.
  using Handler = std::function<void(const HttpRequest&, ClientConn&)>;

  HttpServer() = default;
  ~HttpServer() { stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and spawns
  /// the accept thread. Returns false (with a stderr message) if the socket
  /// can't be bound.
  bool start(std::uint16_t port, Handler handler);

  /// Stops accepting, unblocks and joins every in-flight handler (streaming
  /// ones observe ClientConn::stopping()), closes all sockets. Idempotent.
  void stop();

  bool running() const { return listen_fd_ != -1; }
  /// Actual bound port (resolves port 0), 0 when not running.
  std::uint16_t port() const { return port_; }

 private:
  /// One accepted connection: its handler thread and a done flag the
  /// accept loop uses to reap it (join + close) without blocking.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;
  };

  /// A connection refused at the cap: answered, half-closed, and closed for
  /// good once the client has had time to read the answer (closing at once
  /// with its request unread would reset the connection and lose the 503).
  struct Rejected {
    int fd = -1;
    std::chrono::steady_clock::time_point close_at;
  };

  void accept_loop();
  /// Joins and closes finished connections; returns how many remain live.
  std::size_t reap_finished();
  void reject(int fd);
  /// Closes the rejected sockets whose grace period ended (all if `all`).
  void close_rejected(bool all);
  /// Reads the request by `deadline` and runs the handler on it.
  void handle_client(int fd, std::chrono::steady_clock::time_point deadline);

  Handler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex mu_;            ///< guards conns_
  std::vector<Conn> conns_;  ///< live + finished-but-unreaped connections
  std::vector<Rejected> rejected_;  ///< accept thread only (and stop())
};

// --- client side (the worker/submit half of the svc protocol) ---

struct HttpResult {
  int status = 0;     ///< parsed status code (200, 404, ...)
  std::string body;   ///< response body (after the blank line)
};

/// One blocking request to host:port ("Connection: close"; the functions
/// above always close, so EOF delimits the body). Returns nullopt when the
/// host is unreachable, the connection drops mid-response, or `timeout_ms`
/// elapses on connect/send/recv. Host may be a dotted quad or "localhost".
std::optional<HttpResult> http_request(const std::string& host,
                                       std::uint16_t port,
                                       const std::string& method,
                                       const std::string& path,
                                       const std::string& body = {},
                                       int timeout_ms = 10'000);

/// Splits "host:port" (host defaults to 127.0.0.1 when the text is just a
/// port). nullopt on a malformed port.
std::optional<std::pair<std::string, std::uint16_t>> parse_hostport(
    const std::string& text);

}  // namespace csmt::net
