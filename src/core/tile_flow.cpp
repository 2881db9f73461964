#include "core/tile_flow.hpp"

#include "core/bcast_tree.hpp"
#include "core/cholesky_graph.hpp"

namespace ptlr::core {

std::uint64_t tile_tag(int i, int k) {
  const auto uk = static_cast<std::uint32_t>(k);
  return i == k ? rt::dist::make_tag(0, uk, uk, uk)
                : rt::dist::make_tag(1, uk, static_cast<std::uint32_t>(i),
                                     uk);
}

TileFlow::TileFlow(rt::dist::Transport& t, const rt::Distribution& dist,
                   int nt, const rt::TaskGraph& slice)
    : t_(t) {
  for (rt::TaskId task = 0; task < slice.size(); ++task) {
    if (!slice.gated(task)) continue;
    const rt::TaskInfo& info = slice.info(task);
    const int i = info.ti, k = info.tj;
    const std::uint64_t tag = tile_tag(i, k);
    expected_.emplace(
        tag, Expected{task,
                      bcast::children(tag, dist.owner(i, k),
                                      tile_readers(dist, nt, i, k), t.rank()),
                      {}});
    outstanding_.insert(tag);
  }
}

void TileFlow::run(const std::function<void(rt::TaskId)>& open) {
  std::vector<std::uint64_t> tags;
  while (!outstanding_.empty()) {
    tags.assign(outstanding_.begin(), outstanding_.end());
    rt::dist::TaggedMessage msg = t_.recv_any(tags);
    Expected& e = expected_.at(msg.tag);
    for (const int child : e.children) {
      t_.send(child, msg.tag, msg.payload);  // shares the buffer, no copy
      forwards_ += 1;
      forward_bytes_ += static_cast<long long>(msg.payload.size());
    }
    outstanding_.erase(msg.tag);
    e.payload = std::move(msg.payload);
    open(e.task);
  }
}

Bytes TileFlow::take(int i, int k) {
  return std::move(expected_.at(tile_tag(i, k)).payload);
}

}  // namespace ptlr::core
