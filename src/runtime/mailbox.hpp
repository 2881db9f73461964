// One rank's tagged inbox: the receiver half of the distributed backend's
// message contract.
//
// The virtual-cluster simulator reproduces distributed *timing*; the
// socket mesh (src/net) reproduces distributed *execution*: N ranks with
// private data exchange real byte buffers — blocking receives,
// non-blocking sends, full message accounting. The distributed
// BAND-DENSE-TLR Cholesky (core/dist_cholesky.hpp) runs on it with
// owner-computes semantics and per-rank tile storage, so the communication
// pattern of Section VII-A is exercised for real.
//
// net::SocketTransport's receiver threads deposit decoded wire envelopes
// here; the Mailbox supplies the rest of the contract: receiver-side
// dedup by envelope id, the epoch fence of a rejoined peer, and the
// deadline-aware recv that turns a hang into a named ptlr::Error.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "resilience/watchdog.hpp"

namespace ptlr::rt::dist {

/// Message tags: (space, k, i, j) packed into 64 bits, mirroring the data
/// keys of the task graph.
constexpr std::uint64_t make_tag(std::uint32_t space, std::uint32_t k,
                                 std::uint32_t i, std::uint32_t j) {
  return (static_cast<std::uint64_t>(space) << 60) |
         (static_cast<std::uint64_t>(k & 0xFFFFF) << 40) |
         (static_cast<std::uint64_t>(i & 0xFFFFF) << 20) |
         static_cast<std::uint64_t>(j & 0xFFFFF);
}

/// Connection state of a peer as seen by the transport feeding a mailbox.
/// The socket mesh distinguishes a peer that finished sending (kDraining,
/// BYE received) from one whose connection died (kLost), so a
/// deadline-recv timeout can say which kind of hang it hit.
enum class PeerState : int { kConnected = 0, kDraining, kLost };

/// "connected" / "draining" / "lost".
const char* peer_state_name(PeerState s) noexcept;

/// The unit the transport moves: an id-stamped payload. The socket
/// transport derives the id from (tag, sender), so receiver-side dedup
/// works across sources.
struct Envelope {
  std::uint64_t id = 0;
  std::uint64_t tag = 0;
  /// Set on a retransmission that recovers an injected drop; delivering
  /// such a fresh envelope notes kMsgRecovered.
  bool recovered_drop = false;
  /// Sender rank and session epoch, set by the socket transport so the
  /// mailbox can fence out stale pre-crash deposits after a peer rejoins.
  /// An envelope with `from` -1 is never fenced.
  int from = -1;
  std::uint64_t epoch = 0;
  /// Refcounted: an envelope shares its buffer with the sender's queue /
  /// retransmit / replay holders instead of owning a copy.
  Bytes payload;
};

/// What recv_any() pops: the payload plus which of the waited tags it was.
struct TaggedMessage {
  std::uint64_t tag = 0;
  Bytes payload;
};

/// One rank's tagged inbox: the receiver half of the message contract.
/// Thread-safe; any number of transport threads may deposit while the rank
/// blocks in recv().
class Mailbox {
 public:
  explicit Mailbox(int rank, const resil::WatchdogConfig& watchdog =
                                 resil::WatchdogConfig::from_env());

  [[nodiscard]] int rank() const { return rank_; }

  /// Deposit a message (non-blocking, wakes blocked receivers). Duplicate
  /// ids are kept here and discarded by recv()'s dedup.
  void deposit(Envelope env);

  /// Block until a fresh message with `tag` is available; pop its payload.
  /// `from` is the rank expected to produce the message (-1 when unknown);
  /// a watchdog timeout then names the peer's connection state so a
  /// dead-peer hang reads differently from a slow-peer hang. Throws
  /// ptlr::Error on abort/failure or when the watchdog deadline passes.
  Bytes recv(std::uint64_t tag, int from = -1);

  /// Block until a fresh message with ANY of `tags` is available; pop the
  /// first one found (tags are checked in the given order each wake-up).
  /// Same abort/watchdog semantics as recv(). `tags` must be non-empty.
  TaggedMessage recv_any(const std::vector<std::uint64_t>& tags,
                         int from = -1);

  /// Wake every blocked receiver with a generic abort error.
  void abort();

  /// Wake every blocked receiver with `reason` (e.g. "connection to rank 2
  /// lost"); recv() throws an Error carrying it. The first reason wins the
  /// error text; subsequent reasons are counted and surfaced as
  /// "(+N earlier/later failures)" so a multi-peer loss is not
  /// misdiagnosed as a single-peer hang.
  void fail(const std::string& reason);

  /// Discard any queued and future deposits from `from` whose epoch is
  /// below `min_epoch` — stale pre-crash traffic after the peer rejoined
  /// with a new session epoch. Envelopes with from < 0 are never fenced.
  void fence_epoch(int from, std::uint64_t min_epoch);

  /// Deposits discarded by the epoch fence so far (test/obs hook).
  [[nodiscard]] long long stale_discards() const;

  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  /// Install the transport's peer-state view (see PeerState). Call before
  /// receivers block; unset peers report kConnected.
  void set_peer_state_fn(std::function<PeerState(int)> fn);

 private:
  [[nodiscard]] std::string describe(std::uint64_t tag, int from) const;
  [[nodiscard]] std::string describe_any(
      const std::vector<std::uint64_t>& tags, int from) const;

  int rank_;
  resil::WatchdogConfig watchdog_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::queue<Envelope>> slots_;
  std::unordered_set<std::uint64_t> delivered_;
  std::function<PeerState(int)> peer_state_;
  std::string fail_reason_;
  int extra_failures_ = 0;
  std::map<int, std::uint64_t> epoch_fence_;
  long long stale_discards_ = 0;
  std::atomic<bool> aborted_{false};
};

}  // namespace ptlr::rt::dist
