#include "net/transport.hpp"

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "resilience/stats.hpp"

namespace ptlr::net {

SocketTransport::SocketTransport(const NetConfig& cfg,
                                 const rt::PerturbConfig& perturb,
                                 const resil::FaultConfig& faults,
                                 const resil::WatchdogConfig& watchdog)
    : cfg_(cfg),
      inbox_(cfg.rank, watchdog),
      mesh_(cfg_, inbox_),
      perturber_(perturb),
      injector_(faults) {
  inbox_.set_peer_state_fn(
      [this](int peer) { return mesh_.peer_state(peer); });
  mesh_.connect();
}

SocketTransport::~SocketTransport() { mesh_.close(); }

void SocketTransport::send(int to, std::uint64_t tag, Bytes payload) {
  PTLR_CHECK(to >= 0 && to < cfg_.nranks,
             "send to invalid rank " + std::to_string(to));
  perturber_.maybe_delay_delivery();

  // Mesh-wide unique ids without coordination: a hash of (tag, sender).
  // The owner-computes protocol sends each logical (tag, dest) at most
  // once per factorization, so the hash is collision-safe in practice AND
  // schedule-invariant: a respawned rank replaying a send stamps the same
  // id, so receiver-side dedup makes delivery exactly-once across rank
  // restarts. Zero is reserved ("no id"), hence the guard.
  std::uint64_t id =
      splitmix64(tag ^ splitmix64(static_cast<std::uint64_t>(cfg_.rank) + 1));
  if (id == 0) id = 1;

  if (to == cfg_.rank) {
    // Self-sends never touch the wire (or the stats).
    rt::dist::Envelope env;
    env.id = id;
    env.tag = tag;
    env.from = cfg_.rank;
    env.epoch = static_cast<std::uint64_t>(cfg_.epoch);
    env.payload = std::move(payload);
    inbox_.deposit(std::move(env));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.messages++;
    stats_.bytes += static_cast<long long>(payload.size());
  }
  if (obs::enabled())
    obs::record_comm(cfg_.rank, to, static_cast<long long>(payload.size()));

  // Seeded (tag, from, to) fault decisions: a seed drops the same logical
  // messages under any schedule. A drop is a *real* suppressed
  // transmission recovered by a flagged retransmission (PeerMesh::send).
  const bool drop = injector_.drop_message(tag, cfg_.rank, to);
  const bool dup = !drop && injector_.duplicate_message(tag, cfg_.rank, to);
  if (drop || dup) {
    std::ostringstream site;
    site << "rank " << to << ", tag 0x" << std::hex << tag;
    resil::note(drop ? resil::ResilienceEvent::kMsgDrop
                     : resil::ResilienceEvent::kMsgDup,
                site.str());
  }
  mesh_.send(to, tag, id, std::move(payload), drop, dup);
}

Bytes SocketTransport::recv(std::uint64_t tag, int from) {
  return inbox_.recv(tag, from);
}

rt::dist::TaggedMessage SocketTransport::recv_any(
    const std::vector<std::uint64_t>& tags) {
  return inbox_.recv_any(tags);
}

void SocketTransport::flush() { mesh_.flush(); }

void SocketTransport::abort() {
  inbox_.abort();
  mesh_.close();
}

void SocketTransport::drain() { mesh_.drain(); }

obs::CommCounters SocketTransport::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace ptlr::net
