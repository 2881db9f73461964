#include "net/loopback.hpp"

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <system_error>
#include <thread>

#include "common/error.hpp"

namespace ptlr::net {

LoopbackMesh::LoopbackMesh(int nranks, const rt::PerturbConfig& perturb,
                           const resil::FaultConfig& faults,
                           const resil::WatchdogConfig& watchdog) {
  PTLR_CHECK(nranks >= 1, "a mesh needs at least one rank");
  char tmpl[] = "/tmp/ptlr-mesh-XXXXXX";
  PTLR_CHECK(::mkdtemp(tmpl) != nullptr,
             std::string("cannot make a mesh directory: ") +
                 std::strerror(errno));
  dir_ = tmpl;

  const auto n = static_cast<std::size_t>(nranks);
  ranks_.resize(n);
  std::vector<std::exception_ptr> errors(n);
  {
    std::vector<std::thread> connects;
    connects.reserve(n);
    for (int r = 0; r < nranks; ++r)
      connects.emplace_back([&, r] {
        NetConfig cfg;
        cfg.kind = NetConfig::Kind::kUds;
        cfg.dir = dir_;
        cfg.rank = r;
        cfg.nranks = nranks;
        const auto ur = static_cast<std::size_t>(r);
        try {
          ranks_[ur] = std::make_unique<SocketTransport>(cfg, perturb, faults,
                                                         watchdog);
        } catch (...) {
          errors[ur] = std::current_exception();
        }
      });
    for (auto& th : connects) th.join();
  }
  for (const auto& e : errors)
    if (e) {
      close();  // the destructor does not run for a throwing constructor
      std::rethrow_exception(e);
    }
}

LoopbackMesh::~LoopbackMesh() { close(); }

void LoopbackMesh::close() {
  ranks_.clear();
  std::error_code ec;  // best effort: a leftover directory is not an error
  std::filesystem::remove_all(dir_, ec);
}

}  // namespace ptlr::net
