// Dataflow task graph with automatic dependency discovery.
//
// Tasks are inserted sequentially with declared read/write sets over opaque
// data keys (PaRSEC's DTD interface; the Cholesky generator in ptlr::core
// produces the same DAG a PTG/JDF description would). Dependencies follow
// the usual dataflow rules: read-after-write, write-after-read and
// write-after-write on each key. Edges are classified LOCAL/REMOTE from the
// producer/consumer owner processes (Section VII-A), which is what the
// simulator charges communication for.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace ptlr::rt {

using TaskId = std::int32_t;
using DataKey = std::uint64_t;

/// Pack a (kind, i, j) triple into a data key; kind distinguishes key
/// spaces (e.g. tiles vs. scalars).
constexpr DataKey make_key(std::uint32_t kind, std::uint32_t i,
                           std::uint32_t j) {
  return (static_cast<DataKey>(kind) << 48) |
         (static_cast<DataKey>(i & 0xFFFFFF) << 24) |
         static_cast<DataKey>(j & 0xFFFFFF);
}

/// One output datum of a task, described to the runtime's recovery layer.
/// A task that declares its outputs becomes recoverable: before a
/// fault-injected attempt the executor snapshots every output via `save`,
/// and a transient failure restores the snapshots with `restore` and
/// re-runs the body — producing a factor bitwise identical to a fault-free
/// run. A task whose outputs alias other concurrent tasks' data must NOT
/// declare outputs; the executor never injects into or retries it.
struct TaskOutput {
  /// Serialize the output's current contents.
  std::function<std::vector<char>()> save;
  /// Overwrite the output from a `save` snapshot.
  std::function<void(const std::vector<char>&)> restore;
  /// True iff every payload value is finite (NaN/Inf corruption scan).
  std::function<bool()> finite;
  /// Corrupt one payload value chosen from hash `h` with a NaN; returns
  /// false when there is nothing to corrupt (e.g. a rank-0 tile), in which
  /// case the injector does not count a fault. Test-only hook.
  std::function<bool(std::uint64_t)> poison;
};

/// User-facing task description.
struct TaskInfo {
  std::string name;               ///< e.g. "potrf(3)"
  int kind = 0;                   ///< user tag (kernel enum value; -1 none)
  int panel = -1;                 ///< panel index k (for priorities, Fig. 9)
  int ti = -1, tj = -1;           ///< output tile coordinates (tracing)
  double priority = 0.0;          ///< larger runs earlier among ready tasks
  std::function<void()> fn;       ///< real body (empty for simulation-only)
  double duration = 0.0;          ///< modelled execution seconds (simulator)
  int owner = 0;                  ///< owning process (simulator)
  std::size_t output_bytes = 0;   ///< payload sent along REMOTE out-edges
  /// Device preference for heterogeneous simulation: 0 = CPU core,
  /// 1 = prefers an accelerator when the node has one (dense Level-3
  /// kernels on the critical path — the paper's GPU future work).
  int device_class = 0;
  /// Outputs for snapshot/restore recovery; empty = not recoverable (the
  /// executor skips such tasks when injecting faults). See TaskOutput.
  std::vector<TaskOutput> outputs;
};

/// Scheduler-hot per-task metadata, packed to 24 bytes and maintained as
/// tasks are inserted. Executor startup makes several whole-graph passes
/// (priority banding, the tile-locality table, root seeding, dependency
/// counter init); sweeping this array instead of the ~200-byte Node
/// records turns each pass into a streamed read of `24 * size()` bytes —
/// at 10^6 tasks the difference between ~50 ms and ~2 ms of setup.
/// Fields are captured at add_task: the scheduler
/// treats priority/ti/tj/owner as insertion-time properties, so later
/// writes through the mutable info() accessor are not reflected here.
struct TaskMeta {
  double priority = 0.0;
  std::int32_t ti = -1, tj = -1;  ///< output tile coordinates (locality)
  std::int32_t owner = 0;         ///< owning process (placement hint)
  std::int32_t npred = 0;         ///< predecessor count (authoritative)
};

/// A dependency-resolved DAG of tasks.
class TaskGraph {
 public:
  /// Insert a task; reads/writes declare its data footprint. A key present
  /// in both sets is treated as read-modify-write. Returns the task id.
  TaskId add_task(TaskInfo info, std::span<const DataKey> reads,
                  std::span<const DataKey> writes);

  /// Add an explicit edge `from -> to` outside the dataflow rules (control
  /// dependencies, adversarial test graphs). Duplicate edges are collapsed.
  /// Both ids must name existing tasks and differ; unlike dataflow edges,
  /// nothing stops a caller from building a cycle here — `validate()` (run
  /// by the executor before launching workers) rejects such graphs.
  void add_dependency(TaskId from, TaskId to);

  /// Give task `t` one extra predecessor that no task satisfies: a gate,
  /// opened during execute() by a thread outside the worker pool (see
  /// ExecOptions::open_gates). The distributed driver gates each task that
  /// receives a remote tile, and its receive thread opens the gate when
  /// the bytes arrive. At most one gate per task.
  void add_gate(TaskId t);
  [[nodiscard]] bool gated(TaskId t) const {
    return nodes_[static_cast<std::size_t>(t)].gated;
  }
  /// Number of gated tasks.
  [[nodiscard]] int gates() const { return ngates_; }

  /// Structural sanity check: every successor id in range, predecessor
  /// counts consistent with the edges (plus one per gate), and no
  /// dependency cycle among the edges. Throws ptlr::Error describing the
  /// first violation. Cost O(V + E).
  void validate() const;

  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const TaskInfo& info(TaskId t) const {
    return nodes_[static_cast<std::size_t>(t)].info;
  }
  [[nodiscard]] TaskInfo& info(TaskId t) {
    return nodes_[static_cast<std::size_t>(t)].info;
  }
  [[nodiscard]] const std::vector<TaskId>& successors(TaskId t) const {
    return nodes_[static_cast<std::size_t>(t)].succ;
  }
  [[nodiscard]] int num_predecessors(TaskId t) const {
    return meta_[static_cast<std::size_t>(t)].npred;
  }
  /// Dense scheduler metadata, one entry per task (see TaskMeta).
  [[nodiscard]] const std::vector<TaskMeta>& meta() const { return meta_; }
  /// Number of tasks that carry output tile coordinates (ti, tj >= 0).
  /// Lets the executor skip building its tile-locality table — a
  /// whole-graph pass plus a hash map — for graphs with no tiles at all
  /// (flat fuzz/bench DAGs).
  [[nodiscard]] int tiled_tasks() const { return ntiled_; }

  /// Edge counts by locality given the owners stored in TaskInfo.
  struct EdgeStats {
    long long local = 0;
    long long remote = 0;
  };
  [[nodiscard]] EdgeStats classify_edges() const;

  /// Longest path length in task count (sanity metric for tests).
  [[nodiscard]] int critical_path_length() const;

 private:
  struct Node {
    TaskInfo info;
    std::vector<TaskId> succ;
    bool gated = false;
  };
  struct LastAccess {
    TaskId writer = -1;
    std::vector<TaskId> readers;  ///< readers since the last writer
  };

  void add_edge(TaskId from, TaskId to);

  std::vector<Node> nodes_;
  std::vector<TaskMeta> meta_;  ///< parallel to nodes_
  int ntiled_ = 0;
  int ngates_ = 0;
  std::unordered_map<DataKey, LastAccess> last_;
};

}  // namespace ptlr::rt
