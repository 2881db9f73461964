// The transport seam of the distributed backend.
//
// One rank's endpoint view of the message layer: the distributed Cholesky
// (core/dist_cholesky.cpp) is written against this interface only, so the
// LOCAL/REMOTE dataflow classification and the (α,β) placement model run
// unchanged whether the ranks are threads of one process (SimTransport
// over the in-process Communicator) or OS processes on a socket mesh
// (net::SocketTransport, src/net/transport.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/mailbox.hpp"

namespace ptlr::rt::dist {

/// One rank's endpoint: send to peers, receive by tag, abort the mesh.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int nranks() const = 0;

  /// Non-blocking-ish deposit for `to` (may block on transport
  /// backpressure, never on the receiver). Self-sends are allowed. The
  /// payload is a refcounted buffer: a broadcast hands the SAME Bytes to
  /// every destination and the transport's queues/retransmit/replay
  /// holders all share that one allocation.
  virtual void send(int to, std::uint64_t tag, Bytes payload) = 0;

  /// Block until a fresh message with `tag` arrives; pop its payload.
  /// `from` is the rank expected to produce it (threaded into deadline
  /// diagnostics, see Mailbox::recv).
  virtual Bytes recv(std::uint64_t tag, int from) = 0;

  /// Block until a fresh message with ANY of `tags` arrives; pop the
  /// first. A rank's receive thread (core/tile_flow.hpp) lives on this:
  /// it waits on every tile still outstanding and forwards whatever
  /// lands down its broadcast tree.
  virtual TaggedMessage recv_any(const std::vector<std::uint64_t>& tags) = 0;

  /// Wake every local blocked receiver with an error and tear the mesh
  /// down hard — called by a rank that hit an exception so its peers do
  /// not deadlock waiting for messages that will never arrive.
  virtual void abort() = 0;

  /// Graceful end-of-program: flush outstanding sends and (on a wire
  /// transport) wait for every peer's drain marker. No-op by default.
  virtual void drain() {}

  /// Ack barrier for this endpoint's own sends: block until every frame
  /// this rank queued has been written AND acknowledged (or a peer failed
  /// terminally — then throws ptlr::Error). Unlike drain() it sends no
  /// BYE and requires nothing of the peers' progress, so it is safe
  /// mid-factorization. A rank's ckpt task calls it before writing a
  /// checkpoint: a tree-forwarded tile must be *delivered*, not merely
  /// queued, before the frontier that assumes it advances. No-op on the
  /// in-process transport (deposits are synchronous).
  virtual void flush() {}

  /// Messages and payload bytes this endpoint sent (self-sends excluded).
  [[nodiscard]] virtual Communicator::Stats stats() const = 0;
};

/// The in-process transport: adapts one rank's slice of a shared
/// Communicator to the endpoint interface. The Communicator carries the
/// perturbation/fault/watchdog machinery; this is a thin view.
class SimTransport final : public Transport {
 public:
  SimTransport(Communicator& comm, int rank) : comm_(&comm), rank_(rank) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int nranks() const override { return comm_->nranks(); }

  void send(int to, std::uint64_t tag, Bytes payload) override {
    comm_->send(rank_, to, tag, std::move(payload));
  }

  Bytes recv(std::uint64_t tag, int from) override {
    return comm_->recv(rank_, tag, from);
  }

  TaggedMessage recv_any(const std::vector<std::uint64_t>& tags) override {
    return comm_->recv_any(rank_, tags);
  }

  void abort() override { comm_->abort(); }

  /// Note: the Communicator's stats are mesh-global (every rank shares
  /// one counter), matching the historical DistCholeskyResult contract.
  [[nodiscard]] Communicator::Stats stats() const override {
    return comm_->stats();
  }

 private:
  Communicator* comm_;
  int rank_;
};

}  // namespace ptlr::rt::dist
