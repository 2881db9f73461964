#include "net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "common/error.hpp"

namespace ptlr::net {

namespace {

long long env_ll(const char* name, long long def) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return def;
  char* end = nullptr;
  const long long x = std::strtoll(v, &end, 10);
  PTLR_CHECK(end != nullptr && *end == '\0' && x >= 0,
             std::string(name) + " must be a non-negative integer, got: " + v);
  return x;
}

sockaddr_un uds_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PTLR_CHECK(path.size() < sizeof(addr.sun_path),
             "UDS path too long (" + path + ")");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  PTLR_CHECK(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
             "invalid TCP host address: " + host);
  return addr;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Fd::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

NetConfig NetConfig::from_env() {
  NetConfig cfg;
  const char* net = std::getenv("PTLR_NET");
  PTLR_CHECK(net != nullptr && net[0] != '\0',
             "PTLR_NET is not set (expected uds:<dir> or tcp:<host>:<port>; "
             "ranks are normally launched via ptlr-launch)");
  const std::string spec(net);
  if (spec.rfind("uds:", 0) == 0) {
    cfg.kind = Kind::kUds;
    cfg.dir = spec.substr(4);
    PTLR_CHECK(!cfg.dir.empty(), "PTLR_NET=uds: needs a directory");
  } else if (spec.rfind("tcp:", 0) == 0) {
    cfg.kind = Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    PTLR_CHECK(colon != std::string::npos && colon > 0 &&
                   colon + 1 < rest.size(),
               "PTLR_NET=tcp: expects tcp:<host>:<base_port>, got: " + spec);
    cfg.host = rest.substr(0, colon);
    // Strict: every character a digit, and no overflow (std::atoi read
    // "9x" as 9 and an over-long number as undefined behaviour).
    const std::string port = rest.substr(colon + 1);
    char* end = nullptr;
    errno = 0;
    const long long p = std::strtoll(port.c_str(), &end, 10);
    PTLR_CHECK(port.find_first_not_of("0123456789") == std::string::npos &&
                   end == port.c_str() + port.size() && errno == 0 &&
                   p >= 1 && p <= 65535,
               "PTLR_NET tcp base port must be an integer in 1..65535, "
               "got: " + spec);
    cfg.port = static_cast<int>(p);
  } else {
    throw Error("PTLR_NET must start with uds: or tcp:, got: " + spec);
  }
  cfg.rank = static_cast<int>(env_ll("PTLR_RANK", -1));
  cfg.nranks = static_cast<int>(env_ll("PTLR_NRANKS", 0));
  PTLR_CHECK(cfg.nranks >= 1, "PTLR_NRANKS must be >= 1");
  PTLR_CHECK(cfg.rank >= 0 && cfg.rank < cfg.nranks,
             "PTLR_RANK out of range for PTLR_NRANKS");
  // Rank r listens on base_port + r.
  PTLR_CHECK(cfg.kind != Kind::kTcp ||
                 static_cast<long long>(cfg.port) + cfg.nranks - 1 <= 65535,
             "PTLR_NET tcp base port " + std::to_string(cfg.port) +
                 " leaves no port for rank " +
                 std::to_string(cfg.nranks - 1) + " (base + " +
                 std::to_string(cfg.nranks - 1) + " > 65535)");
  cfg.connect_timeout_ms = env_ll("PTLR_NET_TIMEOUT_MS", 15000);
  cfg.rto_ms = env_ll("PTLR_NET_RTO_MS", 25);
  // An explicit PTLR_NET_RTO_MS pins the timeout (the pre-adaptive
  // contract); otherwise the 25 ms default only seeds the RTT estimator.
  cfg.rto_fixed = std::getenv("PTLR_NET_RTO_MS") != nullptr;
  PTLR_CHECK(cfg.connect_timeout_ms > 0, "PTLR_NET_TIMEOUT_MS must be > 0");
  PTLR_CHECK(cfg.rto_ms > 0, "PTLR_NET_RTO_MS must be > 0");
  cfg.epoch = static_cast<int>(env_ll("PTLR_EPOCH", 0));
  PTLR_CHECK(cfg.epoch <= 255, "PTLR_EPOCH exceeds the wire epoch range");
  cfg.rejoin_window_ms = env_ll("PTLR_NET_REJOIN_MS", 0);
  return cfg;
}

std::string NetConfig::endpoint_of(int r) const {
  if (kind == Kind::kUds)
    return dir + "/ptlr." + std::to_string(r) + ".sock";
  return host + ":" + std::to_string(port + r);
}

Fd listen_endpoint(const NetConfig& cfg) {
  const bool uds = cfg.kind == NetConfig::Kind::kUds;
  Fd fd(::socket(uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  PTLR_CHECK(fd.valid(), "socket() failed: " + std::string(strerror(errno)));
  if (uds) {
    const std::string path = cfg.endpoint_of(cfg.rank);
    ::unlink(path.c_str());
    const sockaddr_un addr = uds_addr(path);
    PTLR_CHECK(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" + path + ") failed: " + std::string(strerror(errno)));
  } else {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = tcp_addr(cfg.host, cfg.port + cfg.rank);
    PTLR_CHECK(::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "bind(" + cfg.endpoint_of(cfg.rank) +
                   ") failed: " + std::string(strerror(errno)));
  }
  PTLR_CHECK(::listen(fd.get(), cfg.nranks + 8) == 0,
             "listen() failed: " + std::string(strerror(errno)));
  return fd;
}

Fd connect_endpoint(const NetConfig& cfg, int peer,
                    std::chrono::steady_clock::time_point deadline) {
  const bool uds = cfg.kind == NetConfig::Kind::kUds;
  for (;;) {
    Fd fd(::socket(uds ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
    PTLR_CHECK(fd.valid(), "socket() failed: " + std::string(strerror(errno)));
    int rc;
    if (uds) {
      const sockaddr_un addr = uds_addr(cfg.endpoint_of(peer));
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    } else {
      const sockaddr_in addr = tcp_addr(cfg.host, cfg.port + peer);
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
      if (rc == 0) {
        const int one = 1;
        ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
    if (rc == 0) return fd;
    // The peer's listener may simply not exist yet (launch order is
    // arbitrary); retry until the rendezvous deadline.
    if (std::chrono::steady_clock::now() >= deadline)
      throw Error("rendezvous timeout connecting to rank " +
                  std::to_string(peer) + " at " + cfg.endpoint_of(peer) +
                  ": " + std::string(strerror(errno)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Fd accept_endpoint(const Fd& listener,
                   std::chrono::steady_clock::time_point deadline) {
  PTLR_CHECK(wait_readable(listener.get(), deadline),
             "rendezvous timeout waiting for an inbound peer connection");
  Fd fd(::accept(listener.get(), nullptr, nullptr));
  PTLR_CHECK(fd.valid(), "accept() failed: " + std::string(strerror(errno)));
  // Acks must not sit in Nagle's buffer: a delayed ACK past the RTO reads
  // as a loss and triggers spurious retransmissions. A no-op (rejected
  // option) on AF_UNIX sockets.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const auto w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

long recv_some(int fd, char* p, std::size_t n) {
  for (;;) {
    const auto r = ::recv(fd, p, n, 0);
    if (r < 0 && errno == EINTR) continue;
    return static_cast<long>(r);
  }
}

bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1,
                          static_cast<int>(ms > 1000 ? 1000 : (ms + 1)));
    if (rc < 0 && errno != EINTR)
      throw Error("poll() failed: " + std::string(strerror(errno)));
    if (rc > 0) return true;
  }
}

}  // namespace ptlr::net
