#include "net/peer_mesh.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ptlr::net {

using Clock = std::chrono::steady_clock;
using rt::dist::PeerState;

namespace {

/// Per-peer backpressure bound: data frames wait while this many bytes are
/// queued for one peer.
constexpr std::size_t kMaxQueueBytes = 64u << 20;

/// Longest wait of the accept thread between two rejoin-window checks,
/// and of a rejoin handshake read between two looks at `closing_`.
constexpr std::chrono::milliseconds kAcceptPoll{200};

std::string rank_str(int r) { return "rank " + std::to_string(r); }

/// The k-step a mailbox tag belongs to (make_tag packs k into bits 40..59).
std::uint64_t tag_step(std::uint64_t tag) { return (tag >> 40) & 0xFFFFFu; }

}  // namespace

PeerMesh::PeerMesh(const NetConfig& cfg, rt::dist::Mailbox& inbox)
    : cfg_(cfg), inbox_(inbox) {
  peers_.resize(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r)
    if (r != cfg_.rank) {
      peers_[static_cast<std::size_t>(r)] = std::make_unique<Peer>();
      peers_[static_cast<std::size_t>(r)]->rank = r;
    }
}

PeerMesh::~PeerMesh() { close(); }

std::chrono::milliseconds PeerMesh::drain_deadline() const {
  // Drain must outlive a pending rejoin: a rank killed near the last step
  // can respawn and still BYE within the window.
  return std::chrono::milliseconds(cfg_.connect_timeout_ms +
                                   cfg_.rejoin_window_ms);
}

Frame PeerMesh::handshake_read(int fd, FrameDecoder& dec,
                               Clock::time_point dl) {
  char buf[4096];
  for (;;) {
    if (auto f = dec.next()) return std::move(*f);
    PTLR_CHECK(wait_readable(fd, dl),
               "handshake timeout waiting for a HELLO frame");
    const long r = recv_some(fd, buf, sizeof(buf));
    if (r == 0)
      throw Error("peer disconnected in the middle of the handshake");
    PTLR_CHECK(r > 0, "handshake read failed");
    dec.feed(buf, static_cast<std::size_t>(r));
  }
}

Frame PeerMesh::rejoin_read(int fd, FrameDecoder& dec, Clock::time_point dl) {
  char buf[4096];
  for (;;) {
    if (auto f = dec.next()) return std::move(*f);
    PTLR_CHECK(!closing_.load(std::memory_order_acquire),
               "rejoin: mesh is closing");
    PTLR_CHECK(Clock::now() < dl,
               "rejoin: timeout waiting for the REJOIN frame");
    // This read runs on the accept thread: keep every other peer's rejoin
    // window expiring on time while it waits.
    if (!wait_readable(fd, std::min(dl, expire_rejoin_windows()))) continue;
    const long r = recv_some(fd, buf, sizeof(buf));
    if (r == 0)
      throw Error("rejoin: peer disconnected in the middle of the handshake");
    PTLR_CHECK(r > 0, "rejoin: handshake read failed");
    dec.feed(buf, static_cast<std::size_t>(r));
  }
}

void PeerMesh::validate_hello_payload(const Hello& h) const {
  PTLR_CHECK(h.protocol == kProtocolVersion,
             "handshake: protocol version mismatch (peer speaks " +
                 std::to_string(h.protocol) + ", this build speaks " +
                 std::to_string(kProtocolVersion) + ")");
  PTLR_CHECK(static_cast<int>(h.nranks) == cfg_.nranks,
             "handshake: mesh size mismatch (peer was launched with " +
                 std::to_string(h.nranks) + " ranks, this rank with " +
                 std::to_string(cfg_.nranks) + ")");
  PTLR_CHECK(h.build == build_hash(),
             "handshake: build hash mismatch — the ranks were not launched "
             "from the same binary build");
}

void PeerMesh::validate_hello(const Frame& f, int expected_from) const {
  PTLR_CHECK(f.type == FrameType::kHello,
             "handshake: expected a HELLO frame, got frame type " +
                 std::to_string(static_cast<int>(f.type)));
  validate_hello_payload(decode_hello(f));
  if (expected_from >= 0) {
    PTLR_CHECK(f.from == expected_from,
               "handshake: endpoint of " + rank_str(expected_from) +
                   " answered as " + rank_str(f.from));
  } else {
    PTLR_CHECK(f.from > cfg_.rank && f.from < cfg_.nranks,
               "handshake: inbound peer claims invalid " + rank_str(f.from));
  }
}

void PeerMesh::connect() {
  PTLR_CHECK(!connected_, "PeerMesh::connect() called twice");
  connected_ = true;
  if (cfg_.nranks == 1) return;

  const auto dl = Clock::now() + cfg_.connect_timeout();

  // Every rank binds a listener — the highest rank accepts nothing during
  // the rendezvous, but any rank may have to accept a REJOIN later.
  listener_ = listen_endpoint(cfg_);

  if (cfg_.epoch > 0) {
    // This process IS a respawn: skip the rendezvous, REJOIN-dial the
    // survivors.
    rejoin_connect(dl);
  } else {
    const Hello mine{kProtocolVersion,
                     static_cast<std::uint32_t>(cfg_.nranks), build_hash()};
    const std::vector<char> hello = encode_hello(mine, cfg_.rank);

    // Dial every lower rank; each unordered pair shares one stream.
    for (int peer = 0; peer < cfg_.rank; ++peer) {
      Peer& p = *peers_[static_cast<std::size_t>(peer)];
      p.sock = connect_endpoint(cfg_, peer, dl);
      PTLR_CHECK(send_all(p.sock.get(), hello.data(), hello.size()),
                 "handshake: sending HELLO to " + rank_str(peer) + " failed");
      const Frame f = handshake_read(p.sock.get(), p.decoder, dl);
      validate_hello(f, peer);
      p.epoch = f.epoch;
    }

    // Accept every higher rank; they identify themselves in their HELLO.
    for (int n = 0; n < cfg_.nranks - 1 - cfg_.rank; ++n) {
      Fd fd = accept_endpoint(listener_, dl);
      FrameDecoder dec;
      const Frame f = handshake_read(fd.get(), dec, dl);
      validate_hello(f, -1);
      Peer& p = *peers_[static_cast<std::size_t>(f.from)];
      PTLR_CHECK(!p.sock.valid(),
                 "handshake: " + rank_str(f.from) + " connected twice");
      PTLR_CHECK(send_all(fd.get(), hello.data(), hello.size()),
                 "handshake: HELLO reply to " + rank_str(f.from) + " failed");
      p.sock = std::move(fd);
      p.decoder = std::move(dec);
      p.epoch = f.epoch;
    }
  }

  for (auto& p : peers_)
    if (p) start_session(*p);
  if (cfg_.rejoin_window_ms > 0)
    accept_ = std::thread([this] { accept_loop(); });
}

void PeerMesh::rejoin_connect(Clock::time_point dl) {
  const auto epoch8 = static_cast<std::uint8_t>(cfg_.epoch);
  const Rejoin rj{Hello{kProtocolVersion,
                        static_cast<std::uint32_t>(cfg_.nranks), build_hash()},
                  cfg_.rejoin_frontier};
  const std::vector<char> rejoin = encode_rejoin(rj, cfg_.rank, epoch8);
  for (int peer = 0; peer < cfg_.nranks; ++peer) {
    if (peer == cfg_.rank) continue;
    Peer& p = *peers_[static_cast<std::size_t>(peer)];
    p.sock = connect_endpoint(cfg_, peer, dl);
    PTLR_CHECK(send_all(p.sock.get(), rejoin.data(), rejoin.size()),
               "rejoin: sending REJOIN to " + rank_str(peer) + " failed");
    const Frame f = handshake_read(p.sock.get(), p.decoder, dl);
    PTLR_CHECK(f.type == FrameType::kWelcome,
               "rejoin: " + rank_str(peer) +
                   " did not WELCOME this respawn (frame type " +
                   std::to_string(static_cast<int>(f.type)) + ")");
    validate_hello_payload(decode_hello(f));
    PTLR_CHECK(f.from == peer, "rejoin: endpoint of " + rank_str(peer) +
                                   " answered as " + rank_str(f.from));
    p.epoch = f.epoch;  // the survivor's own session epoch
    {
      std::lock_guard<std::mutex> lk(p.mu);
      p.stats.rejoins += 1;
    }
    obs::record_net(obs::NetEvent::kRejoin, cfg_.rank, peer, 0);
  }
}

void PeerMesh::accept_loop() {
  // close() shuts the listener down, which wakes this wait at once.
  while (!closing_.load(std::memory_order_acquire)) {
    if (!wait_readable(listener_.get(), expire_rejoin_windows()) ||
        closing_.load(std::memory_order_acquire))
      continue;
    Fd fd(::accept(listener_.get(), nullptr, nullptr));
    if (!fd.valid()) continue;
    try {
      handle_rejoin(std::move(fd));
    } catch (const Error&) {
      // A rejected REJOIN (unknown rank, stale epoch, wrong build, peer
      // not lost, garbage bytes) closes the intruder connection and keeps
      // the mesh intact: the descriptive error is accounted per peer where
      // one exists, and the dialer observes EOF instead of a WELCOME.
    }
  }
}

Clock::time_point PeerMesh::expire_rejoin_windows() {
  const std::chrono::milliseconds window(cfg_.rejoin_window_ms);
  const auto now = Clock::now();
  // A loss that begins after this check ends its window no sooner than one
  // window length from now, so waking by then keeps its expiry on time.
  auto next = now + std::min(kAcceptPoll, window);
  for (auto& up : peers_) {
    if (!up) continue;
    Peer& p = *up;
    std::string expired;
    {
      std::lock_guard<std::mutex> lk(p.mu);
      if (p.state.load() != static_cast<int>(PeerState::kLost) || p.failed)
        continue;
      if (now < p.lost_at + window) {
        next = std::min(next, p.lost_at + window);
        continue;
      }
      // Once the window passes with no rejoin, the loss becomes terminal
      // and blocked receivers fail exactly as they would without a window.
      p.failed = true;
      expired = p.lost_reason + " (no rejoin within " +
                std::to_string(cfg_.rejoin_window_ms) + " ms)";
      p.cv_space.notify_all();
      p.cv_state.notify_all();
    }
    inbox_.fail(expired);
  }
  return next;
}

void PeerMesh::handle_rejoin(Fd fd) {
  FrameDecoder dec;
  const auto dl = Clock::now() + std::chrono::milliseconds(
                                     std::min<long long>(
                                         cfg_.connect_timeout_ms, 5000));
  // Validation order mirrors the wire decoder: nothing is trusted (and no
  // peer state touched) before the frame proves who it is. Failures here
  // have no peer slot to account against — the Error propagates to the
  // accept loop, which just closes the connection.
  const Frame f = rejoin_read(fd.get(), dec, dl);
  PTLR_CHECK(f.type == FrameType::kRejoin,
             "rejoin: expected a REJOIN frame, got frame type " +
                 std::to_string(static_cast<int>(f.type)));
  PTLR_CHECK(f.from >= 0 && f.from < cfg_.nranks && f.from != cfg_.rank &&
                 peers_[static_cast<std::size_t>(f.from)],
             "rejoin: REJOIN from unknown " + rank_str(f.from));
  Peer& p = *peers_[static_cast<std::size_t>(f.from)];
  Rejoin rj;
  try {
    rj = decode_rejoin(f);
    validate_hello_payload(rj.hello);

    // The dying rank's EOF and its respawn's dial race on the survivor:
    // give the old receiver a moment to observe the loss.
    const auto lost_dl = Clock::now() + std::chrono::milliseconds(2000);
    while (p.state.load() != static_cast<int>(PeerState::kLost) &&
           Clock::now() < lost_dl &&
           !closing_.load(std::memory_order_acquire)) {
      expire_rejoin_windows();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    PTLR_CHECK(p.state.load() == static_cast<int>(PeerState::kLost),
               "rejoin: " + rank_str(f.from) + " is not lost");
    {
      std::lock_guard<std::mutex> lk(p.mu);
      PTLR_CHECK(!p.failed, "rejoin: the window for " + rank_str(f.from) +
                                " already expired");
      // Exactly +1: an epoch regression is a replayed/imposter handshake,
      // a skip means the peer crashed mid-rejoin and its history diverged
      // from ours — both are refused (the launcher's backoff makes honest
      // epochs strictly sequential).
      PTLR_CHECK(static_cast<int>(f.epoch) ==
                     static_cast<int>(p.epoch) + 1,
                 "rejoin: " + rank_str(f.from) + " presented epoch " +
                     std::to_string(static_cast<int>(f.epoch)) +
                     ", expected " +
                     std::to_string(static_cast<int>(p.epoch) + 1));
    }
  } catch (const Error&) {
    std::lock_guard<std::mutex> lk(p.mu);
    p.stats.rejoin_rejects += 1;
    throw;
  }

  // Validated: swap the link. The old session threads exited when the old
  // socket died (sender wakes on kLost, receiver on EOF) — join them
  // before their slots are reused.
  if (p.sender.joinable()) p.sender.join();
  if (p.receiver.joinable()) p.receiver.join();

  const Hello mine{kProtocolVersion, static_cast<std::uint32_t>(cfg_.nranks),
                   build_hash()};
  {
    std::lock_guard<std::mutex> lk(p.mu);
    p.sock = std::move(fd);
    p.decoder = std::move(dec);
    p.epoch = f.epoch;
    p.bye_received = false;
    p.lost_reason.clear();
    // If our BYE was already sent (or lost from the queue), the respawned
    // peer never saw it — make sure one reaches the new socket.
    if (p.bye_enqueued) {
      const bool queued = std::any_of(
          p.queue.begin(), p.queue.end(), [](const QueueItem& qi) {
            return qi.frame.type == FrameType::kBye;
          });
      if (!queued) {
        p.bye_sent = false;
        Frame bye;
        bye.type = FrameType::kBye;
        bye.from = cfg_.rank;
        bye.epoch = static_cast<std::uint8_t>(cfg_.epoch);
        p.queued_bytes += kHeaderBytes;
        p.queue.push_back(QueueItem{std::move(bye), false});
      }
    }
    // WELCOME must be the FIRST frame on the new socket — the dialer's
    // handshake read expects it before any replayed MSG.
    std::vector<QueueItem> head(1);
    head[0].frame.type = FrameType::kWelcome;
    head[0].frame.from = cfg_.rank;
    head[0].frame.epoch = static_cast<std::uint8_t>(cfg_.epoch);
    head[0].frame.payload = hello_payload(mine);
    // Right behind it, what the dead socket may have taken with it: every
    // unacked MSG that is not still queued (a queued one reaches the new
    // socket anyway)...
    std::set<std::uint64_t> queued;
    for (const QueueItem& qi : p.queue)
      if (qi.frame.type == FrameType::kMsg) queued.insert(qi.frame.id);
    for (const auto& [id, frame] : p.unacked)
      if (queued.count(id) == 0) head.push_back(QueueItem{frame, true});
    // ...and every acked MSG logged at or past the respawn's resume
    // frontier, which it cannot reconstruct (deterministic ids make
    // redundant deliveries dedup).
    for (auto it = p.sent_log.begin(); it != p.sent_log.end();) {
      if (tag_step(it->second.tag) >= rj.frontier) {
        Frame frame = std::move(it->second);
        frame.flags &= static_cast<std::uint8_t>(~kFlagDropRetransmit);
        head.push_back(QueueItem{frame, true});  // drop accounting closed
        p.unacked.insert_or_assign(it->first, std::move(frame));
        it = p.sent_log.erase(it);
      } else {
        ++it;
      }
    }
    for (const QueueItem& qi : head)
      p.queued_bytes += kHeaderBytes + qi.frame.payload.size();
    p.queue.insert(p.queue.begin(), head.begin(), head.end());
    p.state.store(static_cast<int>(PeerState::kConnected));
    p.stats.rejoins += 1;
    p.cv_send.notify_all();
    p.cv_space.notify_all();
    p.cv_state.notify_all();
  }
  // Fence the mailbox: any pre-crash envelope from the old session that
  // is still queued (or still in flight through a decoder) is stale.
  inbox_.fence_epoch(p.rank, f.epoch);
  start_session(p);
  obs::record_net(obs::NetEvent::kRejoin, p.rank, cfg_.rank, 0);
}

void PeerMesh::start_session(Peer& p) {
  p.sender = std::thread([this, &p] { sender_loop(p); });
  p.receiver = std::thread([this, &p] { receiver_loop(p); });
}

void PeerMesh::enqueue(Peer& p, Frame f, bool control, bool retransmit) {
  f.epoch = static_cast<std::uint8_t>(cfg_.epoch);
  const std::size_t cost = kHeaderBytes + f.payload.size();
  std::unique_lock<std::mutex> lk(p.mu);
  if (!control) {
    // Backpressure: cap the bytes parked for one peer. Control frames
    // (ACK/BYE) bypass the cap so the receiver thread can never block
    // behind a full data queue. A peer that is lost but still inside its
    // rejoin window keeps accepting queued sends — they flow once the
    // respawn's socket is swapped in; only a terminal failure (window
    // expired / no window) throws.
    p.cv_space.wait(lk, [&] {
      return p.queued_bytes + cost <= kMaxQueueBytes ||
             closing_.load(std::memory_order_acquire) || p.failed;
    });
    if (closing_.load(std::memory_order_acquire))
      throw Error("send to " + rank_str(p.rank) + ": transport is closing");
    if (p.failed)
      throw Error("send to " + rank_str(p.rank) + ": connection lost");
  }
  p.queued_bytes += cost;
  p.queue.push_back(QueueItem{std::move(f), retransmit});
  p.cv_send.notify_one();
}

void PeerMesh::send(int to, std::uint64_t tag, std::uint64_t id,
                    Bytes payload, bool drop_first_send, bool duplicate) {
  PTLR_CHECK(to >= 0 && to < cfg_.nranks && to != cfg_.rank,
             "PeerMesh::send: bad destination rank " + std::to_string(to));
  Peer& p = *peers_[static_cast<std::size_t>(to)];

  Frame f;
  f.type = FrameType::kMsg;
  f.from = cfg_.rank;
  f.epoch = static_cast<std::uint8_t>(cfg_.epoch);
  f.id = id;
  f.tag = tag;
  f.payload = std::move(payload);

  if (drop_first_send) f.flags |= kFlagDropRetransmit;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    p.unacked.emplace(id, f);  // shares the payload buffer, no byte copy
  }
  // An injected drop suppresses only the FIRST transmission: its one
  // flagged resend is queued in its place, so the receiver counts the
  // recovery and the sender counts one retransmit.
  if (duplicate) enqueue(p, f, /*control=*/false);
  enqueue(p, std::move(f), /*control=*/false, /*retransmit=*/drop_first_send);
}

void PeerMesh::sender_loop(Peer& p) {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock<std::mutex> lk(p.mu);
      p.cv_send.wait(lk, [&] {
        return !p.queue.empty() ||
               closing_.load(std::memory_order_acquire) ||
               p.state.load() == static_cast<int>(PeerState::kLost);
      });
      if (closing_.load(std::memory_order_acquire)) return;
      // Leave the queue intact on loss: a rejoin swap restarts a fresh
      // sender that drains it onto the new socket.
      if (p.state.load() == static_cast<int>(PeerState::kLost)) return;
      item = std::move(p.queue.front());
      p.queue.pop_front();
      p.queued_bytes -= kHeaderBytes + item.frame.payload.size();
      p.cv_space.notify_all();
      p.cv_state.notify_all();
    }
    // Zero-copy write: the 32-byte header lives on the stack, the payload
    // goes straight from its shared buffer to the socket. No per-frame
    // header+payload concatenation buffer exists anywhere on this path.
    const std::array<char, kHeaderBytes> header = encode_header(item.frame);
    const bool ok =
        send_all(p.sock.get(), header.data(), header.size()) &&
        (item.frame.payload.empty() ||
         send_all(p.sock.get(), item.frame.payload.data(),
                  item.frame.payload.size()));
    if (!ok) {
      if (!closing_.load(std::memory_order_acquire))
        mark_lost(p, "connection to " + rank_str(p.rank) +
                         " lost (send failed)");
      return;
    }
    if (item.frame.type == FrameType::kBye) {
      std::lock_guard<std::mutex> lk(p.mu);
      p.bye_sent = true;
      p.cv_state.notify_all();
    }
    if (item.frame.type == FrameType::kMsg) {
      const auto payload_bytes =
          static_cast<long long>(item.frame.payload.size());
      {
        std::lock_guard<std::mutex> lk(p.mu);
        p.stats.msgs_sent += 1;
        p.stats.bytes_sent += payload_bytes;
        if (item.retransmit) p.stats.retransmits += 1;
      }
      obs::record_net(item.retransmit ? obs::NetEvent::kRetransmit
                                      : obs::NetEvent::kSend,
                      cfg_.rank, p.rank, payload_bytes);
    }
  }
}

void PeerMesh::receiver_loop(Peer& p) {
  std::vector<char> buf(64u << 10);
  for (;;) {
    // Drain frames the handshake read may have over-consumed BEFORE the
    // first socket read — after a rejoin the replayed MSGs can already sit
    // fully buffered in the swapped-in decoder.
    try {
      while (auto f = p.decoder.next()) dispatch(p, std::move(*f));
    } catch (const Error& e) {
      mark_lost(p, "wire error on the stream from " + rank_str(p.rank) +
                       ": " + e.what());
      return;
    }
    const long r = recv_some(p.sock.get(), buf.data(), buf.size());
    if (r <= 0) {
      bool graceful;
      {
        std::lock_guard<std::mutex> lk(p.mu);
        graceful = p.bye_received;
      }
      if (r == 0 && !graceful && !closing_.load(std::memory_order_acquire))
        mark_lost(p, "connection to " + rank_str(p.rank) +
                         " lost (socket closed without BYE)");
      else if (r < 0 && !closing_.load(std::memory_order_acquire))
        mark_lost(p, "connection to " + rank_str(p.rank) +
                         " lost (read error)");
      return;
    }
    p.decoder.feed(buf.data(), static_cast<std::size_t>(r));
  }
}

void PeerMesh::dispatch(Peer& p, Frame f) {
  // Epoch fence: a frame from any other session epoch than the one this
  // mesh last validated for the peer is stale pre-crash traffic — it gets
  // no ack, no deposit, no state transition.
  if (f.type == FrameType::kMsg || f.type == FrameType::kAck ||
      f.type == FrameType::kBye) {
    std::lock_guard<std::mutex> lk(p.mu);
    if (f.epoch != p.epoch) {
      p.stats.stale_frames += 1;
      return;
    }
  }
  switch (f.type) {
    case FrameType::kMsg: {
      const auto payload_bytes = static_cast<long long>(f.payload.size());
      {
        std::lock_guard<std::mutex> lk(p.mu);
        p.stats.msgs_recv += 1;
        p.stats.bytes_recv += payload_bytes;
      }
      obs::record_net(obs::NetEvent::kRecv, p.rank, cfg_.rank,
                      payload_bytes);
      Frame ack;
      ack.type = FrameType::kAck;
      ack.from = cfg_.rank;
      ack.id = f.id;
      enqueue(p, std::move(ack), /*control=*/true);
      rt::dist::Envelope env;
      env.id = f.id;
      env.tag = f.tag;
      env.recovered_drop = (f.flags & kFlagDropRetransmit) != 0;
      env.from = p.rank;
      env.epoch = f.epoch;
      env.payload = std::move(f.payload);
      inbox_.deposit(std::move(env));
      break;
    }
    case FrameType::kAck: {
      std::lock_guard<std::mutex> lk(p.mu);
      if (auto it = p.unacked.find(f.id); it != p.unacked.end()) {
        if (cfg_.rejoin_window_ms > 0) {
          // Retain the acked frame for rejoin replay: a respawned peer
          // cannot re-request data it acked before crashing.
          p.sent_log.insert_or_assign(f.id, std::move(it->second));
        }
        p.unacked.erase(it);
      }
      p.cv_state.notify_all();
      break;
    }
    case FrameType::kBye: {
      std::lock_guard<std::mutex> lk(p.mu);
      p.bye_received = true;
      int expected = static_cast<int>(PeerState::kConnected);
      p.state.compare_exchange_strong(
          expected, static_cast<int>(PeerState::kDraining));
      p.cv_state.notify_all();
      break;
    }
    case FrameType::kHello:
    case FrameType::kRejoin:
    case FrameType::kWelcome:
      throw Error("unexpected handshake frame (type " +
                  std::to_string(static_cast<int>(f.type)) +
                  ") after the handshake");
  }
}

void PeerMesh::mark_lost(Peer& p, const std::string& why) {
  bool fail_now;
  {
    std::lock_guard<std::mutex> lk(p.mu);
    if (p.state.load() == static_cast<int>(PeerState::kLost)) return;
    p.state.store(static_cast<int>(PeerState::kLost));
    p.lost_at = Clock::now();
    p.lost_reason = why;
    // Without a rejoin window the loss is immediately terminal; with one,
    // the slot stays open and the accept loop escalates only if no rejoin
    // lands in time.
    fail_now = cfg_.rejoin_window_ms <= 0;
    if (fail_now) p.failed = true;
    p.cv_send.notify_all();
    p.cv_space.notify_all();
    p.cv_state.notify_all();
  }
  if (fail_now) inbox_.fail(why);
}

rt::dist::PeerState PeerMesh::peer_state(int peer) const {
  if (peer < 0 || peer >= cfg_.nranks || peer == cfg_.rank ||
      !peers_[static_cast<std::size_t>(peer)])
    return PeerState::kConnected;
  return static_cast<PeerState>(
      peers_[static_cast<std::size_t>(peer)]->state.load());
}

int PeerMesh::peer_epoch(int peer) const {
  if (peer < 0 || peer >= cfg_.nranks || peer == cfg_.rank ||
      !peers_[static_cast<std::size_t>(peer)])
    return 0;
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::lock_guard<std::mutex> lk(p.mu);
  return static_cast<int>(p.epoch);
}

void PeerMesh::flush() {
  if (cfg_.nranks == 1) return;
  const auto dl = Clock::now() + drain_deadline();
  std::vector<std::string> lost;
  for (auto& up : peers_) {
    if (!up) continue;
    Peer& p = *up;
    std::unique_lock<std::mutex> lk(p.mu);
    // Same settle predicate as begin_drain(), but NO BYE afterwards: the
    // link stays live. Once the queue is empty and every MSG is acked,
    // everything sent before this call is durably at its peer — the
    // invariant a checkpoint needs before recording progress.
    const bool flushed = p.cv_state.wait_until(lk, dl, [&] {
      return (p.queue.empty() && p.unacked.empty()) || p.failed;
    });
    if (p.failed) {
      lost.push_back(rank_str(p.rank));
      continue;
    }
    if (!flushed) {
      std::ostringstream os;
      os << "flush: timed out flushing to " << rank_str(p.rank) << " ("
         << p.queue.size() << " queued, " << p.unacked.size()
         << " unacked frames)";
      throw Error(os.str());
    }
  }
  if (!lost.empty()) {
    std::string all = lost.front();
    for (std::size_t i = 1; i < lost.size(); ++i) all += ", " + lost[i];
    throw Error("flush: connection to " + all + " lost");
  }
}

void PeerMesh::begin_drain() {
  if (cfg_.nranks == 1) return;
  const auto dl = Clock::now() + drain_deadline();
  std::vector<std::string> lost;
  for (auto& up : peers_) {
    if (!up) continue;
    Peer& p = *up;
    {
      std::unique_lock<std::mutex> lk(p.mu);
      const bool flushed = p.cv_state.wait_until(lk, dl, [&] {
        return (p.queue.empty() && p.unacked.empty()) || p.failed;
      });
      if (p.failed) {
        // Record and keep going: every lost peer must be named, not just
        // the first one the iteration order happens to hit.
        lost.push_back(rank_str(p.rank));
        continue;
      }
      if (!flushed) {
        std::ostringstream os;
        os << "drain: timed out flushing to " << rank_str(p.rank) << " ("
           << p.queue.size() << " queued, " << p.unacked.size()
           << " unacked frames)";
        throw Error(os.str());
      }
      p.bye_enqueued = true;
    }
    Frame bye;
    bye.type = FrameType::kBye;
    bye.from = cfg_.rank;
    enqueue(p, std::move(bye), /*control=*/true);
  }
  if (!lost.empty()) {
    std::string all = lost.front();
    for (std::size_t i = 1; i < lost.size(); ++i) all += ", " + lost[i];
    throw Error("drain: connection to " + all + " lost");
  }
}

void PeerMesh::drain() {
  if (cfg_.nranks == 1) return;
  begin_drain();
  const auto dl = Clock::now() + drain_deadline();
  std::vector<std::string> lost;
  for (auto& up : peers_) {
    if (!up) continue;
    Peer& p = *up;
    std::unique_lock<std::mutex> lk(p.mu);
    // Both directions must settle: the peer's BYE arrived AND our own BYE
    // left the socket — otherwise a fast peer could satisfy the receive
    // half while our BYE still sits queued, and close() would drop it.
    const bool done = p.cv_state.wait_until(lk, dl, [&] {
      return (p.bye_received && p.bye_sent) || p.failed;
    });
    if (p.failed) {
      lost.push_back(rank_str(p.rank));
      continue;
    }
    if (!done)
      throw Error("drain: timed out waiting for BYE from " +
                  rank_str(p.rank));
  }
  if (!lost.empty()) {
    std::string all = lost.front();
    for (std::size_t i = 1; i < lost.size(); ++i) all += ", " + lost[i];
    throw Error("drain: connection to " + all +
                " lost before its BYE arrived");
  }
}

void PeerMesh::close() {
  std::lock_guard<std::mutex> lk(lifecycle_mu_);
  if (joined_) return;
  closing_.store(true, std::memory_order_release);
  // The accept loop must settle first: an in-flight rejoin swap may be
  // reassigning session threads, and it finishes in bounded time once
  // closing_ is set. Shutting the listener down wakes its wait at once.
  listener_.shutdown_both();
  if (accept_.joinable()) accept_.join();
  for (auto& up : peers_) {
    if (!up) continue;
    up->sock.shutdown_both();
    std::lock_guard<std::mutex> plk(up->mu);
    up->cv_send.notify_all();
    up->cv_space.notify_all();
    up->cv_state.notify_all();
  }
  for (auto& up : peers_) {
    if (!up) continue;
    if (up->sender.joinable()) up->sender.join();
    if (up->receiver.joinable()) up->receiver.join();
  }
  listener_.reset();
  joined_ = true;
}

PeerWireStats PeerMesh::peer_stats(int peer) const {
  PeerWireStats out;
  if (peer < 0 || peer >= cfg_.nranks || peer == cfg_.rank ||
      !peers_[static_cast<std::size_t>(peer)])
    return out;
  Peer& p = *peers_[static_cast<std::size_t>(peer)];
  std::lock_guard<std::mutex> lk(p.mu);
  return p.stats;
}

PeerWireStats PeerMesh::total_stats() const {
  PeerWireStats out;
  for (int r = 0; r < cfg_.nranks; ++r) {
    const PeerWireStats s = peer_stats(r);
    out.msgs_sent += s.msgs_sent;
    out.bytes_sent += s.bytes_sent;
    out.msgs_recv += s.msgs_recv;
    out.bytes_recv += s.bytes_recv;
    out.retransmits += s.retransmits;
    out.stale_frames += s.stale_frames;
    out.rejoins += s.rejoins;
    out.rejoin_rejects += s.rejoin_rejects;
  }
  return out;
}

}  // namespace ptlr::net
