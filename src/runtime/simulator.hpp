// Virtual-cluster discrete-event simulator.
//
// Replaces the Cray XC40 of the paper's evaluation: each virtual process
// owns the tasks the data distribution assigns to it, executes them on
// `cores_per_proc` virtual cores using the modelled durations in TaskInfo,
// and pays latency + bytes/bandwidth for every REMOTE dataflow edge
// (Section VII-A). Messages follow PaRSEC's PTG collective pattern: one
// message per (producer task → consumer process) pair, however many
// consumer tasks that process hosts.
//
// The simulator reproduces the *shape* metrics of the paper's distributed
// experiments — makespan scaling, per-process busy/idle, panel release
// times, message volume — without MPI hardware. Shared-memory execution
// (executor.hpp) remains the source of truth for numerics.
#pragma once

#include "runtime/taskgraph.hpp"

namespace ptlr::rt {

/// Point-to-point communication cost model: t = latency + bytes/bandwidth.
/// With tree_broadcast, multi-destination sends follow a store-and-forward
/// binomial tree (PaRSEC's PTG collectives): destination i pays
/// hops(i) = floor(log2(i+1)) + 1 point-to-point hops instead of all
/// destinations being served directly by the root.
struct CommModel {
  double latency = 2e-6;        ///< seconds (Aries-class interconnect)
  double bandwidth = 8e9;       ///< bytes/second
  bool tree_broadcast = false;
  [[nodiscard]] double cost(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bandwidth;
  }
  /// Arrival delay at the i-th (0-based) destination of a broadcast.
  [[nodiscard]] double broadcast_cost(std::size_t bytes, int dest_index) const {
    if (!tree_broadcast) return cost(bytes);
    int hops = 1, level = 2;
    while (dest_index + 1 >= level) {
      ++hops;
      level <<= 1;
    }
    return hops * cost(bytes);
  }
};

/// Virtual cluster configuration.
struct SimConfig {
  int nproc = 1;
  int cores_per_proc = 1;
  CommModel comm;
  /// Heterogeneous nodes (Section IX future work): accelerators per
  /// process that run device_class-1 tasks `accel_speedup`× faster.
  /// device_class-1 tasks fall back to CPU cores when accelerators are
  /// busy; device_class-0 tasks never use accelerators.
  int accel_per_proc = 0;
  double accel_speedup = 8.0;
  /// Dynamic inter-node load balancing (the paper's first-named future
  /// work): a process whose CPU cores idle with an empty ready queue
  /// steals the best ready task from the most loaded peer, paying the
  /// communication cost of shipping the task's data (modelled with the
  /// task's output payload) before it can start.
  bool work_stealing = false;
};

/// Simulation outcome.
struct SimResult {
  double makespan = 0.0;                 ///< simulated seconds
  std::vector<double> busy = {};         ///< per-process busy core-seconds
  long long messages = 0;                ///< REMOTE messages posted
  double message_bytes = 0.0;            ///< total REMOTE payload
  /// Run id of this simulation's spans (obs::run_spans) when
  /// obs::enabled(): one SpanCat::kSim span per task, on simulated
  /// seconds, with its process and core. -1 when not recording.
  int run = -1;
  /// Occupancy of process p: busy[p] / (makespan * cores_per_proc).
  [[nodiscard]] double occupancy(int p, int cores) const {
    return makespan > 0.0
               ? busy[static_cast<std::size_t>(p)] / (makespan * cores)
               : 0.0;
  }
};

/// Run the discrete-event simulation of `g` on the virtual cluster.
/// Task owners and durations must be set in each TaskInfo. With obs on,
/// records one span per task (see SimResult::run).
SimResult simulate(const TaskGraph& g, const SimConfig& cfg);

}  // namespace ptlr::rt
