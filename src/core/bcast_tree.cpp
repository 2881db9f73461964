#include "core/bcast_tree.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace ptlr::core::bcast {

std::vector<int> participants(std::uint64_t tag, int origin,
                              const std::set<int>& dests) {
  std::vector<int> out;
  out.reserve(dests.size());
  for (const int d : dests)
    if (d != origin) out.push_back(d);  // std::set iterates sorted
  if (out.size() > 1) {
    const std::size_t rot =
        static_cast<std::size_t>(splitmix64(tag) % out.size());
    std::rotate(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(rot), out.end());
  }
  return out;
}

int first_hop(std::uint64_t tag, int origin, const std::set<int>& dests) {
  const std::vector<int> ps = participants(tag, origin, dests);
  return ps.empty() ? -1 : ps.front();
}

std::vector<int> children(std::uint64_t tag, int origin,
                          const std::set<int>& dests, int self) {
  const std::vector<int> ps = participants(tag, origin, dests);
  if (self == origin) {
    if (ps.empty()) return {};
    return {ps.front()};
  }
  std::size_t p = 0;
  for (; p < ps.size(); ++p)
    if (ps[p] == self) break;
  if (p == ps.size()) return {};  // not a participant
  // Binomial children of position p: p + 2^j for every 2^j > p. Each
  // position q > 0 then has the unique parent q - (highest bit of q), so
  // the tree covers every participant exactly once.
  std::vector<int> out;
  for (std::size_t step = 1; p + step < ps.size(); step <<= 1)
    if (step > p) out.push_back(ps[p + step]);
  return out;
}

int depth(std::size_t ndests) {
  if (ndests == 0) return 0;
  // 1 hop origin→root, plus the binomial depth over ndests participants:
  // position p is reached in popcount-free ceil(log2(p+1)) hops; the
  // farthest is the last position.
  int d = 1;
  std::size_t reach = 1;  // positions covered after `d` hops
  while (reach < ndests) {
    reach <<= 1;
    ++d;
  }
  return d;
}

}  // namespace ptlr::core::bcast
