#include "runtime/taskgraph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ptlr::rt {

void TaskGraph::add_edge(TaskId from, TaskId to) {
  if (from == to) return;
  auto& succ = nodes_[static_cast<std::size_t>(from)].succ;
  // Dedupe: read/write sets of one task are tiny, so a linear scan of the
  // most recent edges is cheaper than a per-node hash set.
  if (std::find(succ.begin(), succ.end(), to) != succ.end()) return;
  succ.push_back(to);
  meta_[static_cast<std::size_t>(to)].npred++;
}

TaskId TaskGraph::add_task(TaskInfo info, std::span<const DataKey> reads,
                           std::span<const DataKey> writes) {
  const auto id = static_cast<TaskId>(nodes_.size());
  meta_.push_back(TaskMeta{info.priority, info.ti, info.tj, info.owner, 0});
  if (info.ti >= 0 && info.tj >= 0) ++ntiled_;
  nodes_.push_back(Node{std::move(info), {}, false});

  for (const DataKey k : reads) {
    LastAccess& la = last_[k];
    if (la.writer >= 0) add_edge(la.writer, id);
    la.readers.push_back(id);
  }
  for (const DataKey k : writes) {
    LastAccess& la = last_[k];
    if (la.readers.empty()) {
      // No readers since the last write: direct WAW edge.
      if (la.writer >= 0) add_edge(la.writer, id);
    } else {
      // WAR edges; the WAW edge is transitively implied by writer→readers.
      for (const TaskId r : la.readers) add_edge(r, id);
    }
    la.readers.clear();
    la.writer = id;
  }
  return id;
}

void TaskGraph::add_dependency(TaskId from, TaskId to) {
  const auto n = static_cast<TaskId>(nodes_.size());
  PTLR_CHECK(from >= 0 && from < n, "add_dependency: `from` is not a task");
  PTLR_CHECK(to >= 0 && to < n, "add_dependency: `to` is not a task");
  PTLR_CHECK(from != to, "add_dependency: self-dependency");
  add_edge(from, to);
}

void TaskGraph::add_gate(TaskId t) {
  PTLR_CHECK(t >= 0 && t < static_cast<TaskId>(nodes_.size()),
             "add_gate: not a task");
  Node& node = nodes_[static_cast<std::size_t>(t)];
  PTLR_CHECK(!node.gated, "add_gate: task \"" + node.info.name +
                              "\" already has a gate");
  node.gated = true;
  meta_[static_cast<std::size_t>(t)].npred++;
  ++ngates_;
}

void TaskGraph::validate() const {
  const auto n = static_cast<TaskId>(nodes_.size());
  std::vector<int> indegree(nodes_.size(), 0);
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    for (const TaskId s : nodes_[t].succ) {
      PTLR_CHECK(s >= 0 && s < n,
                 "task \"" + nodes_[t].info.name + "\" (id " +
                     std::to_string(t) +
                     ") has a dangling successor index " + std::to_string(s));
      PTLR_CHECK(static_cast<std::size_t>(s) != t,
                 "task \"" + nodes_[t].info.name + "\" depends on itself");
      indegree[static_cast<std::size_t>(s)]++;
    }
  }
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    // A gate counts as one predecessor that no edge carries.
    if (nodes_[t].gated) indegree[t]++;
    PTLR_CHECK(indegree[t] == meta_[t].npred,
               "task \"" + nodes_[t].info.name + "\" (id " +
                   std::to_string(t) + ") expects " +
                   std::to_string(meta_[t].npred) +
                   " predecessors but has " + std::to_string(indegree[t]) +
                   " incoming edges");
  }
  // Kahn's algorithm: if a topological order does not cover every task the
  // leftover tasks form (or hang off) a cycle and the pool would deadlock.
  // Gates open from outside, so they do not hold a task back here.
  std::vector<TaskId> stack;
  for (TaskId t = 0; t < n; ++t) {
    if (nodes_[static_cast<std::size_t>(t)].gated)
      indegree[static_cast<std::size_t>(t)]--;
    if (indegree[static_cast<std::size_t>(t)] == 0) stack.push_back(t);
  }
  std::size_t seen = 0;
  while (!stack.empty()) {
    const TaskId t = stack.back();
    stack.pop_back();
    ++seen;
    for (const TaskId s : nodes_[static_cast<std::size_t>(t)].succ)
      if (--indegree[static_cast<std::size_t>(s)] == 0) stack.push_back(s);
  }
  PTLR_CHECK(seen == nodes_.size(),
             "dependency cycle: " + std::to_string(nodes_.size() - seen) +
                 " of " + std::to_string(nodes_.size()) +
                 " tasks can never become ready");
}

TaskGraph::EdgeStats TaskGraph::classify_edges() const {
  EdgeStats s;
  for (const Node& n : nodes_)
    for (const TaskId t : n.succ) {
      if (n.info.owner == nodes_[static_cast<std::size_t>(t)].info.owner)
        s.local++;
      else
        s.remote++;
    }
  return s;
}

int TaskGraph::critical_path_length() const {
  // Nodes are inserted in dependency order (edges only point forward), so
  // a single forward sweep computes longest paths.
  std::vector<int> depth(nodes_.size(), 1);
  int best = nodes_.empty() ? 0 : 1;
  for (std::size_t t = 0; t < nodes_.size(); ++t) {
    for (const TaskId s : nodes_[t].succ) {
      PTLR_ASSERT(static_cast<std::size_t>(s) > t, "edge must point forward");
      depth[static_cast<std::size_t>(s)] =
          std::max(depth[static_cast<std::size_t>(s)], depth[t] + 1);
      best = std::max(best, depth[static_cast<std::size_t>(s)]);
    }
  }
  return best;
}

}  // namespace ptlr::rt
