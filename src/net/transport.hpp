// The socket transport: one rank's endpoint on the peer mesh, the one
// transport of the distributed backend.
//
// Ranks are OS processes (tools/ptlr-launch) or threads of one process on
// a loopback mesh (net/loopback.hpp); either way every message crosses a
// real socket through src/net's PeerMesh. Sends are id-stamped with a
// deterministic hash of (tag, sender) — each logical (tag, dest) is sent
// at most once per factorization, so the id is unique mesh-wide without
// coordination AND identical when a respawned rank replays the send, which
// makes receiver-side dedup an exactly-once guarantee across rank
// restarts. The receiver threads deposit decoded envelopes into this
// rank's Mailbox (runtime/mailbox.hpp), which runs dedup and the
// deadline-aware recv. Seeded fault injection (PTLR_FAULTS) and chaos
// perturbation (PTLR_PERTURB_SEED) apply at the send site, hashed on
// (tag, from, to), so a seed drops the same logical messages under any
// schedule.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.hpp"
#include "net/peer_mesh.hpp"
#include "net/socket.hpp"
#include "obs/counters.hpp"
#include "resilience/fault.hpp"
#include "resilience/watchdog.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/perturb.hpp"

namespace ptlr::net {

class SocketTransport {
 public:
  /// Binds, rendezvouses and handshakes with every peer — the constructor
  /// returns with the mesh fully connected or throws ptlr::Error.
  /// Defaults read the launcher environment (PTLR_NET/PTLR_RANK/...,
  /// PTLR_FAULTS, PTLR_PERTURB_SEED, PTLR_WATCHDOG_MS).
  explicit SocketTransport(
      const NetConfig& cfg = NetConfig::from_env(),
      const rt::PerturbConfig& perturb = rt::PerturbConfig::from_env(),
      const resil::FaultConfig& faults = resil::FaultConfig::from_env(),
      const resil::WatchdogConfig& watchdog =
          resil::WatchdogConfig::from_env());
  ~SocketTransport();

  [[nodiscard]] int rank() const { return cfg_.rank; }
  [[nodiscard]] int nranks() const { return cfg_.nranks; }

  /// Queue a message for `to` (blocks only on the peer queue's
  /// backpressure, never on the receiver). Self-sends are allowed and stay
  /// local. The payload is a refcounted buffer: a broadcast hands the SAME
  /// Bytes to every destination, and the queue, retransmit and replay
  /// holders all share that one allocation.
  void send(int to, std::uint64_t tag, Bytes payload);

  /// Block until a fresh message with `tag` arrives; pop its payload.
  /// `from` is the rank expected to produce it, named in deadline
  /// diagnostics (Mailbox::recv).
  Bytes recv(std::uint64_t tag, int from);

  /// Block until a fresh message with ANY of `tags` arrives; pop the
  /// first. A rank's receive thread (core/tile_flow.hpp) lives on this.
  rt::dist::TaggedMessage recv_any(const std::vector<std::uint64_t>& tags);

  /// Ack barrier without BYE (PeerMesh::flush): everything sent so far is
  /// acked when this returns. Called before a rank checkpoint is written.
  void flush();

  /// Fail local receivers and tear the sockets down abruptly: peers see
  /// EOF without BYE and mark this rank lost.
  void abort();

  /// Graceful end-of-program: flush + ack-wait + BYE exchange (PeerMesh::
  /// drain). Throws ptlr::Error on a lost peer or a drain timeout.
  void drain();

  /// Logical messages/bytes this rank sent (self-sends excluded; no
  /// retransmissions or injected duplicates).
  [[nodiscard]] obs::CommCounters stats() const;

  /// Wire-level frame totals (incl. retransmissions), for tests/tools.
  [[nodiscard]] PeerWireStats wire_stats() const {
    return mesh_.total_stats();
  }
  [[nodiscard]] PeerMesh& mesh() { return mesh_; }

 private:
  NetConfig cfg_;
  rt::dist::Mailbox inbox_;
  PeerMesh mesh_;
  rt::Perturber perturber_;
  resil::FaultInjector injector_;
  mutable std::mutex stats_mu_;
  obs::CommCounters stats_;
};

}  // namespace ptlr::net
