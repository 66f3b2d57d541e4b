#include "net/http.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define CSMT_NET_POSIX 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace csmt::net {

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nAccess-Control-Allow-Origin: *\r\nConnection: close\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n";
  out += body;
  return out;
}

std::optional<std::pair<std::string, std::uint16_t>> parse_hostport(
    const std::string& text) {
  std::string host = "127.0.0.1";
  std::string port_text = text;
  const std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (host.empty()) host = "127.0.0.1";
  }
  if (port_text.empty()) return std::nullopt;
  std::uint64_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  return std::make_pair(host, static_cast<std::uint16_t>(port));
}

#if CSMT_NET_POSIX

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: rely on SO_NOSIGPIPE set at accept time
#endif

/// Blocking full write; false once the peer is gone.
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Case-insensitive header lookup in a request head; the value with
/// surrounding whitespace trimmed, or empty.
std::string header_value(const std::string& head, const char* name) {
  const std::size_t name_len = std::strlen(name);
  std::size_t pos = 0;
  while ((pos = head.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (head.size() - pos < name_len + 1) break;
    if (strncasecmp(head.c_str() + pos, name, name_len) != 0 ||
        head[pos + name_len] != ':')
      continue;
    std::size_t b = pos + name_len + 1;
    std::size_t e = head.find('\r', b);
    if (e == std::string::npos) e = head.find('\n', b);
    if (e == std::string::npos) e = head.size();
    while (b < e && (head[b] == ' ' || head[b] == '\t')) ++b;
    while (e > b && (head[e - 1] == ' ' || head[e - 1] == '\t')) --e;
    return head.substr(b, e - b);
  }
  return {};
}

using SteadyClock = std::chrono::steady_clock;

/// recv() that gives up at `deadline`: -1 with `*timed_out` set once it
/// passes with nothing to read, else recv()'s own result.
ssize_t recv_until(int fd, char* buf, std::size_t n,
                   SteadyClock::time_point deadline, bool* timed_out) {
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - SteadyClock::now())
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        left > 0 ? ::poll(&pfd, 1, static_cast<int>(left)) : 0;
    if (ready > 0) return ::recv(fd, buf, n, 0);
    if (ready == 0) {
      *timed_out = true;
      return -1;
    }
    if (errno != EINTR) return -1;
  }
}

/// Reads one full request (head + Content-Length body) off `fd` by
/// `deadline`. nullopt on a dropped connection, a malformed request line, an
/// oversized request, or a passed deadline (`*timed_out` set).
std::optional<HttpRequest> read_request(int fd,
                                        SteadyClock::time_point deadline,
                                        bool* timed_out) {
  std::string data;
  std::size_t head_end = std::string::npos;
  char buf[4096];
  while (data.size() < kMaxRequestBytes) {
    head_end = data.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = recv_until(fd, buf, sizeof buf, deadline, timed_out);
    if (n <= 0) return std::nullopt;
    data.append(buf, static_cast<std::size_t>(n));
  }
  if (head_end == std::string::npos) return std::nullopt;
  const std::string head = data.substr(0, head_end + 4);
  const std::size_t sp1 = head.find(' ');
  const std::size_t sp2 = head.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return std::nullopt;

  HttpRequest req;
  req.method = head.substr(0, sp1);
  std::string target = head.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  if (q != std::string::npos) {
    req.query = target.substr(q + 1);
    target.resize(q);
  }
  req.path = std::move(target);

  std::size_t body_len = 0;
  const std::string cl = header_value(head, "Content-Length");
  if (!cl.empty()) {
    for (const char c : cl) {
      if (c < '0' || c > '9') return std::nullopt;
      body_len = body_len * 10 + static_cast<std::size_t>(c - '0');
      if (body_len > kMaxRequestBytes) return std::nullopt;
    }
  }
  req.body = data.substr(head_end + 4);
  while (req.body.size() < body_len) {
    const ssize_t n = recv_until(fd, buf, sizeof buf, deadline, timed_out);
    if (n <= 0) return std::nullopt;
    req.body.append(buf, static_cast<std::size_t>(n));
  }
  req.body.resize(body_len);
  return req;
}

}  // namespace

bool ClientConn::respond(const char* status, const char* content_type,
                         const std::string& body) {
  const std::string out = http_response(status, content_type, body);
  return send_all(fd_, out.data(), out.size());
}

bool ClientConn::send_raw(const std::string& bytes) {
  return send_all(fd_, bytes.data(), bytes.size());
}

bool ClientConn::send_raw(const char* data, std::size_t n) {
  return send_all(fd_, data, n);
}

bool HttpServer::start(std::uint16_t port, Handler handler) {
  if (running()) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("csmt: http socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    std::fprintf(stderr, "csmt: cannot serve http on port %u: %s\n",
                 static_cast<unsigned>(port), std::strerror(errno));
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  handler_ = std::move(handler);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running()) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Unblock streaming handlers mid-send; fds are closed after the join so
    // a concurrent handler can never see its number reused.
    for (const Conn& c : conns_) ::shutdown(c.fd, SHUT_RDWR);
    conns.swap(conns_);
  }
  for (Conn& c : conns) {
    c.thread.join();
    ::close(c.fd);
  }
  close_rejected(/*all=*/true);
  listen_fd_ = -1;
  port_ = 0;
  handler_ = nullptr;
}

std::size_t HttpServer::reap_finished() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < conns_.size();) {
    if (conns_[i].done->load()) {
      conns_[i].thread.join();
      ::close(conns_[i].fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return conns_.size();
}

void HttpServer::reject(int fd) {
  static const std::string busy =
      http_response("503 Service Unavailable", "text/plain", "server busy\n");
  // A fresh socket's send buffer is empty, so this small write never
  // blocks the accept loop; MSG_DONTWAIT makes sure of it.
  ::send(fd, busy.data(), busy.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_WR);
  // Bound the sockets held in their grace period, too.
  constexpr std::size_t kMaxLingering = 64;
  if (rejected_.size() >= kMaxLingering) {
    ::close(rejected_.front().fd);
    rejected_.erase(rejected_.begin());
  }
  rejected_.push_back({fd, SteadyClock::now() + std::chrono::seconds(1)});
}

void HttpServer::close_rejected(bool all) {
  const auto now = SteadyClock::now();
  std::size_t kept = 0;
  for (const Rejected& r : rejected_) {
    if (all || now >= r.close_at) {
      ::close(r.fd);
    } else {
      rejected_[kept++] = r;
    }
  }
  rejected_.resize(kept);
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int r = ::poll(&pfd, 1, 200);
    if (stopping_.load()) return;
    const std::size_t live = reap_finished();
    close_rejected(/*all=*/false);
    if (r <= 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
#ifdef SO_NOSIGPIPE
    const int one = 1;
    ::setsockopt(client, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
    if (live >= kMaxConnections) {
      reject(client);
      continue;
    }
    Conn conn;
    conn.fd = client;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    auto done = conn.done;
    const auto deadline =
        SteadyClock::now() + std::chrono::milliseconds(kReadTimeoutMs);
    conn.thread = std::thread([this, client, done, deadline] {
      handle_client(client, deadline);
      done->store(true);
    });
    std::lock_guard<std::mutex> lock(mu_);
    conns_.push_back(std::move(conn));
  }
}

void HttpServer::handle_client(int fd, SteadyClock::time_point deadline) {
  ClientConn conn(fd, stopping_);
  bool timed_out = false;
  if (const auto req = read_request(fd, deadline, &timed_out)) {
    handler_(*req, conn);
  } else if (timed_out) {
    conn.respond("408 Request Timeout", "text/plain", "request timeout\n");
  } else {
    conn.respond("400 Bad Request", "text/plain", "malformed request\n");
  }
  ::shutdown(fd, SHUT_RDWR);
  // The fd itself is closed by the reaper (or stop()); closing it here
  // would race a concurrent stop() handing the number to a new socket.
}

std::optional<HttpResult> http_request(const std::string& host,
                                       std::uint16_t port,
                                       const std::string& method,
                                       const std::string& path,
                                       const std::string& body,
                                       int timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* ip = (host.empty() || host == "localhost") ? "127.0.0.1"
                                                         : host.c_str();
  if (::inet_pton(AF_INET, ip, &addr.sin_addr) != 1) return std::nullopt;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
#ifdef SO_NOSIGPIPE
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return std::nullopt;
  }

  std::string req = method + " " + path + " HTTP/1.1\r\nHost: " + host +
                    "\r\nConnection: close\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!send_all(fd, req.data(), req.size())) {
    ::close(fd);
    return std::nullopt;
  }

  // The server always closes after one response, so EOF delimits it.
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    resp.append(buf, static_cast<std::size_t>(n));
    if (resp.size() > kMaxRequestBytes) break;
  }
  ::close(fd);
  // n == -1 here means a recv timeout/reset mid-body: report failure rather
  // than a truncated payload.
  if (n < 0) return std::nullopt;

  const std::size_t sp = resp.find(' ');
  const std::size_t head_end = resp.find("\r\n\r\n");
  if (sp == std::string::npos || head_end == std::string::npos)
    return std::nullopt;
  HttpResult out;
  out.status = std::atoi(resp.c_str() + sp + 1);
  out.body = resp.substr(head_end + 4);
  return out;
}

#else  // !CSMT_NET_POSIX

bool ClientConn::respond(const char*, const char*, const std::string&) {
  return false;
}
bool ClientConn::send_raw(const std::string&) { return false; }
bool ClientConn::send_raw(const char*, std::size_t) { return false; }

bool HttpServer::start(std::uint16_t, Handler) {
  std::fprintf(stderr, "csmt: http serving is unavailable on this platform\n");
  return false;
}
void HttpServer::stop() {}
std::size_t HttpServer::reap_finished() { return 0; }
void HttpServer::reject(int) {}
void HttpServer::close_rejected(bool) {}
void HttpServer::accept_loop() {}
void HttpServer::handle_client(int, std::chrono::steady_clock::time_point) {}

std::optional<HttpResult> http_request(const std::string&, std::uint16_t,
                                       const std::string&, const std::string&,
                                       const std::string&, int) {
  return std::nullopt;
}

#endif

}  // namespace csmt::net
