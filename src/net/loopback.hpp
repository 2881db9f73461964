// The in-process mesh: N socket endpoints of one process over loopback UDS.
//
// core::distributed_factorize runs its rank threads on one, and the test
// suites build theirs with it. The ranks are threads, but every message
// crosses a real socket with the frames, acks and retransmissions a rank
// process sends (net/peer_mesh.hpp). The rendezvous directory is a fresh
// mkdtemp directory, removed with the mesh.
//
// The NetConfig is built here and never read from PTLR_NET, PTLR_RANK,
// PTLR_NRANKS or PTLR_EPOCH, so a mesh built inside a launched rank
// process does not take that process's own mesh settings. Faults, chaos
// and the receive watchdog default to PTLR_FAULTS, PTLR_PERTURB_SEED and
// PTLR_WATCHDOG_MS, as for every SocketTransport.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace ptlr::net {

class LoopbackMesh {
 public:
  /// Connects `nranks` endpoints, one thread each (a SocketTransport's
  /// constructor blocks until its whole mesh is up). Throws ptlr::Error
  /// when the directory cannot be made or an endpoint fails to connect.
  explicit LoopbackMesh(
      int nranks,
      const rt::PerturbConfig& perturb = rt::PerturbConfig::from_env(),
      const resil::FaultConfig& faults = resil::FaultConfig::from_env(),
      const resil::WatchdogConfig& watchdog =
          resil::WatchdogConfig::from_env());
  /// Closes every endpoint, then removes the rendezvous directory.
  ~LoopbackMesh();

  LoopbackMesh(const LoopbackMesh&) = delete;
  LoopbackMesh& operator=(const LoopbackMesh&) = delete;

  [[nodiscard]] int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Rank `r`'s endpoint.
  [[nodiscard]] SocketTransport& operator[](int r) {
    return *ranks_[static_cast<std::size_t>(r)];
  }

 private:
  void close();

  std::string dir_;
  std::vector<std::unique_ptr<SocketTransport>> ranks_;
};

}  // namespace ptlr::net
