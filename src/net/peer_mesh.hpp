// Socket-based peer mesh: one full-duplex stream per rank pair, with the
// reliability mechanics the mailbox contract expects from a transport.
//
//   * rendezvous + handshake — rank i dials every j < i and accepts every
//     j > i; both sides exchange HELLO (rank id, mesh size, protocol
//     version, build hash) and refuse mismatches before any data flows;
//   * one sender thread per peer draining a bounded byte queue
//     (backpressure: a send blocks while the peer's queue is over budget);
//   * one receiver thread per peer feeding decoded MSG frames straight
//     into the rank's Mailbox, so dedup / drop-recovery accounting /
//     deadline recv run unchanged over the wire;
//   * positive acks — every MSG is held until the peer acks its id, so
//     flush() before a checkpoint and drain() know what has arrived. A
//     connected UDS/TCP stream delivers every written frame once and in
//     order, so nothing is resent on a timer; only two paths resend. An
//     injected drop (resilience fault) suppresses the first transmission
//     and queues the one resend in its place, flagged kFlagDropRetransmit
//     so the receiver counts the recovery. A rejoin (below) resends what
//     the dead socket took with it. Receivers dedup by envelope id;
//   * zero-copy frames — a payload is a refcounted immutable Bytes
//     buffer; queue, unacked set, rejoin sent log, and duplicates all
//     share it, and the sender writes header and payload separately so no
//     concatenated copy is ever built;
//   * wire-level stats per peer (frames/bytes in+out, retransmits),
//     mirrored into the obs counters and trace layer (net_send/net_recv/
//     net_retransmit instant events);
//   * failure detection — EOF without a BYE marker, a decode error, or a
//     handshake violation marks the peer kLost and fails the mailbox, so
//     every blocked receiver on a survivor gets a clean ptlr::Error naming
//     the dead peer instead of hanging.
//
// Rank-death recovery (PTLR_NET_REJOIN_MS > 0): instead of failing the
// mailbox on loss, survivors hold the lost peer's slot open for a bounded
// rejoin window and run an accept loop on their listener, which also
// expires the window. A respawned rank (PTLR_EPOCH > 0) re-dials every
// peer with a REJOIN frame carrying the HELLO fields, its new session
// epoch, and the task frontier it resumes from. The survivor re-runs the
// HELLO validation, requires the epoch to advance by exactly one
// (regressions and skips are rejected), swaps the socket under the peer
// lock, answers WELCOME and queues right behind it every frame the dead
// socket may have lost: each unacked MSG it had written, and each acked
// MSG at or past the frontier from a per-peer sent log. It then fences
// the mailbox so stale pre-crash envelopes are discarded by epoch. If the
// window expires first, behavior degrades to the orderly failure above.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/mailbox.hpp"

namespace ptlr::net {

/// Wire-level totals of one peer link (or the whole mesh, summed).
/// msgs_* count MSG frames only; control frames (HELLO/ACK/BYE) are
/// excluded so the numbers line up with the logical message counts.
struct PeerWireStats {
  long long msgs_sent = 0;
  long long bytes_sent = 0;
  long long msgs_recv = 0;
  long long bytes_recv = 0;
  /// MSG frames written again: injected-drop resends and rejoin resends.
  long long retransmits = 0;
  /// Frames from a stale session epoch discarded by the dispatch fence.
  long long stale_frames = 0;
  /// Successful rejoin handshakes on this link (either side).
  long long rejoins = 0;
  /// REJOIN attempts rejected by validation (unknown rank, bad epoch,
  /// hello mismatch, peer not lost).
  long long rejoin_rejects = 0;
};

class PeerMesh {
 public:
  /// Sets up state only; call connect() to run the rendezvous.
  PeerMesh(const NetConfig& cfg, rt::dist::Mailbox& inbox);
  ~PeerMesh();

  PeerMesh(const PeerMesh&) = delete;
  PeerMesh& operator=(const PeerMesh&) = delete;

  /// Rendezvous + handshake with every peer, then start the per-peer
  /// session threads. A respawned rank (cfg.epoch > 0) REJOIN-dials every
  /// peer instead. Throws ptlr::Error on timeout, a version/build/mesh
  /// mismatch, a rejected rejoin, or a mid-handshake disconnect.
  void connect();

  /// Queue a MSG for `to` (blocks on backpressure, never on the peer).
  /// The payload is refcounted: the queue copy, the unacked/retransmit
  /// copy, the rejoin sent-log copy, and an injected duplicate all share
  /// ONE buffer — a broadcast serializes its tile exactly once.
  /// `drop_first_send` suppresses the initial transmission (injected
  /// drop: one flagged resend is queued in its place);
  /// `duplicate` transmits the frame twice (receiver dedups by id).
  void send(int to, std::uint64_t tag, std::uint64_t id, Bytes payload,
            bool drop_first_send = false, bool duplicate = false);

  /// Connection state of `peer` as the mailbox diagnostics report it.
  [[nodiscard]] rt::dist::PeerState peer_state(int peer) const;

  /// Session epoch this mesh currently tracks for `peer` (test hook).
  [[nodiscard]] int peer_epoch(int peer) const;

  /// Graceful end-of-program barrier: per peer, wait until every queued
  /// frame is written and acked, send BYE, then wait for the peer's BYE.
  /// Throws ptlr::Error naming ALL lost peers, or on a deadline pass.
  void drain();

  /// Flush-and-BYE only (the first half of drain()); exposed so tests can
  /// observe the kDraining state on the remote side.
  void begin_drain();

  /// Ack barrier WITHOUT a BYE: block until every frame queued so far is
  /// written and acked by its peer. Safe mid-factorization — the session
  /// stays fully open afterwards. Called before a rank checkpoint is
  /// written, so a later crash can never lose a send the checkpoint
  /// already assumes delivered. Throws ptlr::Error naming ALL lost peers,
  /// or on a deadline pass.
  void flush();

  /// Abrupt teardown: shut the listener and every socket down and join
  /// the session threads. Peers observe EOF-without-BYE and mark this
  /// rank lost. Idempotent; also run by the destructor.
  void close();

  [[nodiscard]] PeerWireStats peer_stats(int peer) const;
  [[nodiscard]] PeerWireStats total_stats() const;

  [[nodiscard]] int rank() const { return cfg_.rank; }
  [[nodiscard]] int nranks() const { return cfg_.nranks; }

 private:
  struct QueueItem {
    Frame frame;
    bool retransmit = false;
  };
  struct Peer {
    int rank = -1;
    Fd sock;
    std::thread sender;
    std::thread receiver;
    std::mutex mu;
    std::condition_variable cv_send;   ///< sender: queue non-empty/closing
    std::condition_variable cv_space;  ///< producers: backpressure relief
    std::condition_variable cv_state;  ///< drain: acks/queue/bye progress
    std::deque<QueueItem> queue;
    std::size_t queued_bytes = 0;
    /// Every MSG queued or written, until its ack arrives. An injected
    /// drop's entry carries kFlagDropRetransmit.
    std::map<std::uint64_t, Frame> unacked;
    /// Acked MSG frames retained for rejoin replay (only populated while
    /// a rejoin window is configured). A respawned peer cannot recover
    /// remote tiles it already acked before the crash — the survivor
    /// replays every logged frame at or past the REJOIN frontier; the
    /// deterministic message ids make the replay exactly-once. The log is
    /// unbounded within one factorization — the documented memory cost of
    /// enabling recovery.
    std::map<std::uint64_t, Frame> sent_log;
    /// Stream decoder; seeded during the handshake so bytes the HELLO read
    /// over-consumed (an eager peer's first MSG) are not lost.
    FrameDecoder decoder;
    bool bye_received = false;
    /// Our own BYE hit the wire: drain() must confirm this before close()
    /// may tear the sender down, or a fast peer-BYE race drops our BYE.
    bool bye_sent = false;
    /// begin_drain() queued a BYE at least once — a rejoin swap must make
    /// sure one reaches the new socket.
    bool bye_enqueued = false;
    /// Session epoch this mesh last validated for the peer (HELLO or
    /// WELCOME/REJOIN). Frames carrying any other epoch are stale.
    std::uint8_t epoch = 0;
    /// Loss bookkeeping. `failed` is terminal: the mailbox was failed
    /// (window expired or no window configured); a rejoin is refused.
    std::chrono::steady_clock::time_point lost_at{};
    std::string lost_reason;
    bool failed = false;
    std::atomic<int> state{static_cast<int>(rt::dist::PeerState::kConnected)};
    PeerWireStats stats;  // guarded by mu
  };

  Frame handshake_read(int fd, FrameDecoder& dec,
                       std::chrono::steady_clock::time_point dl);
  /// handshake_read that also aborts when the mesh starts closing, so the
  /// accept loop can never pin close() for a full handshake deadline.
  Frame rejoin_read(int fd, FrameDecoder& dec,
                    std::chrono::steady_clock::time_point dl);
  void validate_hello(const Frame& f, int expected_from) const;
  void validate_hello_payload(const Hello& h) const;
  void start_session(Peer& p);
  void dispatch(Peer& p, Frame f);
  void sender_loop(Peer& p);
  void receiver_loop(Peer& p);
  void accept_loop();
  /// Fail every peer whose rejoin window has passed without a rejoin;
  /// returns when the accept thread must look again (the next window end,
  /// or a poll interval from now, whichever is sooner).
  std::chrono::steady_clock::time_point expire_rejoin_windows();
  void handle_rejoin(Fd fd);
  void rejoin_connect(std::chrono::steady_clock::time_point dl);
  void enqueue(Peer& p, Frame f, bool control, bool retransmit = false);
  void mark_lost(Peer& p, const std::string& why);
  [[nodiscard]] std::chrono::milliseconds drain_deadline() const;

  NetConfig cfg_;
  rt::dist::Mailbox& inbox_;
  std::vector<std::unique_ptr<Peer>> peers_;  ///< index = rank; self null
  Fd listener_;
  std::thread accept_;
  std::mutex lifecycle_mu_;
  std::atomic<bool> closing_{false};
  bool connected_ = false;
  bool joined_ = false;
};

}  // namespace ptlr::net
