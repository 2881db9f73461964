// POSIX socket plumbing of the peer mesh: RAII descriptors, UDS/TCP
// listeners, deadline-bounded connects/accepts, and full-buffer I/O.
//
// Rendezvous scheme (set up by tools/ptlr-launch): every rank owns one
// listening endpoint derived from its rank id —
//   UDS:  <dir>/ptlr.<rank>.sock          (PTLR_NET=uds:<dir>, the default)
//   TCP:  <host>:<base_port + rank>       (PTLR_NET=tcp:<host>:<base_port>)
// Rank i initiates the connection to every rank j < i and accepts from
// every rank j > i, so each unordered pair shares exactly one full-duplex
// stream. Outbound connects retry until the peer's listener appears or the
// deadline passes — launch order is irrelevant.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

namespace ptlr::net {

/// Move-only RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

  /// shutdown(2) both directions; keeps the descriptor for close().
  void shutdown_both() const;

 private:
  int fd_ = -1;
};

/// Mesh endpoint configuration, usually parsed from the environment the
/// launcher (tools/ptlr-launch) sets for every rank process.
struct NetConfig {
  enum class Kind { kUds, kTcp };
  Kind kind = Kind::kUds;
  std::string dir;          ///< UDS rendezvous directory
  std::string host;         ///< TCP host
  int port = 0;             ///< TCP base port (rank r listens on port + r)
  int rank = -1;
  int nranks = 0;
  long long connect_timeout_ms = 15000;  ///< rendezvous/drain deadline
  /// Session epoch of THIS process: 0 for a first launch, the restart
  /// count for a respawned rank (the launcher sets PTLR_EPOCH). A nonzero
  /// epoch makes connect() REJOIN-dial every peer instead of running the
  /// initial rendezvous.
  int epoch = 0;
  /// How long survivors hold a lost peer's slot open for a rejoin before
  /// failing the mailbox. 0 (the default): a lost peer fails blocked
  /// receivers immediately.
  long long rejoin_window_ms = 0;
  /// Task frontier a respawned rank resumes from (carried in REJOIN so
  /// survivors replay acked-but-lost frames at or past it). Set by the
  /// caller from the checkpoint, not parsed from the environment.
  std::uint64_t rejoin_frontier = 0;

  /// Parse PTLR_NET ("uds:<dir>" | "tcp:<host>:<base_port>"), PTLR_RANK,
  /// PTLR_NRANKS, and the optional PTLR_NET_TIMEOUT_MS / PTLR_EPOCH /
  /// PTLR_NET_REJOIN_MS (common/knobs.hpp). Throws
  /// ptlr::Error on missing or malformed values.
  static NetConfig from_env();

  /// This rank's listen endpoint ("<dir>/ptlr.<r>.sock" or "host:port+r").
  [[nodiscard]] std::string endpoint_of(int r) const;

  [[nodiscard]] std::chrono::milliseconds connect_timeout() const {
    return std::chrono::milliseconds(connect_timeout_ms);
  }
};

/// Create this rank's listener (unlinks a stale UDS path first). Throws
/// ptlr::Error on failure.
Fd listen_endpoint(const NetConfig& cfg);

/// Connect to rank `peer`'s listener, retrying (the peer may not have
/// bound yet) until `deadline`. Throws ptlr::Error on timeout.
Fd connect_endpoint(const NetConfig& cfg, int peer,
                    std::chrono::steady_clock::time_point deadline);

/// Accept one connection, waiting until `deadline`. Throws on timeout.
Fd accept_endpoint(const Fd& listener,
                   std::chrono::steady_clock::time_point deadline);

/// Write all `n` bytes (MSG_NOSIGNAL; a closed peer returns false, it
/// never raises SIGPIPE). False on any error.
bool send_all(int fd, const char* p, std::size_t n);

/// Read up to `n` bytes. >0 bytes read, 0 on EOF, -1 on error. Interrupted
/// calls (EINTR) retry internally.
long recv_some(int fd, char* p, std::size_t n);

/// Wait until `fd` is readable or `deadline` passes; false on timeout.
bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline);

}  // namespace ptlr::net
