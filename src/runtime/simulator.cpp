#include "runtime/simulator.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ptlr::rt {

namespace {

struct Event {
  double time;
  int type;  // 0 = task arrives (ready at owner), 1 = task finishes
  TaskId task;
  int core;
  std::uint64_t seq;  // deterministic tie-break
};
struct EventOrder {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct ReadyTask {
  double priority;
  TaskId id;
};
struct ReadyOrder {
  bool operator()(const ReadyTask& a, const ReadyTask& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.id > b.id;
  }
};

}  // namespace

SimResult simulate(const TaskGraph& g, const SimConfig& cfg) {
  PTLR_CHECK(cfg.nproc >= 1 && cfg.cores_per_proc >= 1,
             "virtual cluster needs processes and cores");
  const int n = g.size();
  SimResult result;
  result.busy.assign(static_cast<std::size_t>(cfg.nproc), 0.0);
  if (n == 0) return result;
  result.run = obs::enabled() ? obs::begin_run() : -1;

  std::vector<int> pending(static_cast<std::size_t>(n));
  std::vector<double> ready_time(static_cast<std::size_t>(n), 0.0);
  // Executing process of each task: the owner, unless work stealing moved
  // it to an idle peer.
  std::vector<int> exec_proc(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) exec_proc[static_cast<std::size_t>(t)] = g.info(t).owner;

  std::priority_queue<Event, std::vector<Event>, EventOrder> events;
  std::uint64_t seq = 0;
  for (TaskId t = 0; t < n; ++t) {
    PTLR_CHECK(g.info(t).owner >= 0 && g.info(t).owner < cfg.nproc,
               "task owner outside the virtual cluster");
    pending[static_cast<std::size_t>(t)] = g.num_predecessors(t);
    if (pending[static_cast<std::size_t>(t)] == 0)
      events.push({0.0, 0, t, -1, seq++});
  }

  // Per-process scheduling state: ready tasks (split by device preference)
  // and idle core ids. CPU cores are ids [0, cores_per_proc); accelerator
  // ids start at cores_per_proc.
  using ReadyQueue =
      std::priority_queue<ReadyTask, std::vector<ReadyTask>, ReadyOrder>;
  std::vector<ReadyQueue> ready_cpu(static_cast<std::size_t>(cfg.nproc));
  std::vector<ReadyQueue> ready_accel(static_cast<std::size_t>(cfg.nproc));
  std::vector<std::vector<int>> idle_cpu(static_cast<std::size_t>(cfg.nproc));
  std::vector<std::vector<int>> idle_accel(
      static_cast<std::size_t>(cfg.nproc));
  for (auto& cores : idle_cpu) {
    cores.resize(static_cast<std::size_t>(cfg.cores_per_proc));
    for (int c = 0; c < cfg.cores_per_proc; ++c)
      cores[static_cast<std::size_t>(c)] = c;
  }
  for (auto& accels : idle_accel) {
    accels.resize(static_cast<std::size_t>(cfg.accel_per_proc));
    for (int c = 0; c < cfg.accel_per_proc; ++c)
      accels[static_cast<std::size_t>(c)] = cfg.cores_per_proc + c;
  }

  double makespan = 0.0;

  auto place = [&](int proc, double now, TaskId t, int core, bool accel) {
    const TaskInfo& info = g.info(t);
    const double dur = accel ? info.duration / cfg.accel_speedup
                             : info.duration;
    if (result.run >= 0) {
      obs::Span s;
      s.name = info.name;
      s.cat = obs::SpanCat::kSim;
      s.kind = info.kind;
      s.panel = info.panel;
      s.ti = info.ti;
      s.tj = info.tj;
      s.worker = core;
      s.bytes = static_cast<long long>(info.output_bytes);
      s.run = result.run;
      s.task = t;
      s.proc = proc;
      s.t0 = now;
      s.t1 = now + dur;
      obs::record(std::move(s));
    }
    result.busy[static_cast<std::size_t>(proc)] += dur;
    events.push({now + dur, 1, t, core, seq++});
  };

  auto dispatch = [&](int proc, double now) {
    auto& ra = ready_accel[static_cast<std::size_t>(proc)];
    auto& rc = ready_cpu[static_cast<std::size_t>(proc)];
    auto& accels = idle_accel[static_cast<std::size_t>(proc)];
    auto& cpus = idle_cpu[static_cast<std::size_t>(proc)];
    // Accelerator-preferring tasks grab accelerators first...
    while (!ra.empty() && !accels.empty()) {
      const TaskId t = ra.top().id;
      ra.pop();
      const int core = accels.back();
      accels.pop_back();
      place(proc, now, t, core, /*accel=*/true);
    }
    // ...then CPU cores fill with the best remaining tasks of either kind.
    while (!cpus.empty() && (!ra.empty() || !rc.empty())) {
      const bool take_accel_queue =
          !ra.empty() &&
          (rc.empty() || ReadyOrder{}(rc.top(), ra.top()));
      ReadyQueue& q = take_accel_queue ? ra : rc;
      const TaskId t = q.top().id;
      q.pop();
      const int core = cpus.back();
      cpus.pop_back();
      place(proc, now, t, core, /*accel=*/false);
    }
  };

  // Process events in time batches: every arrival/finish at time `now`
  // lands in the ready queues before any dispatch decision, so priorities
  // order simultaneous ready tasks correctly.
  std::vector<int> touched;
  while (!events.empty()) {
    const double now = events.top().time;
    makespan = std::max(makespan, now);
    touched.clear();
    while (!events.empty() && events.top().time == now) {
      const Event ev = events.top();
      events.pop();
      const int proc = exec_proc[static_cast<std::size_t>(ev.task)];
      touched.push_back(proc);

      if (ev.type == 0) {
        // Task arrives at its owner's ready queue.
        const bool wants_accel =
            g.info(ev.task).device_class == 1 && cfg.accel_per_proc > 0;
        auto& q = wants_accel ? ready_accel[static_cast<std::size_t>(proc)]
                              : ready_cpu[static_cast<std::size_t>(proc)];
        q.push({g.info(ev.task).priority, ev.task});
        continue;
      }

      // Task finished: release its core, notify successors, account
      // messages — one per distinct remote destination (PTG collective).
      if (ev.core >= cfg.cores_per_proc) {
        idle_accel[static_cast<std::size_t>(proc)].push_back(ev.core);
      } else {
        idle_cpu[static_cast<std::size_t>(proc)].push_back(ev.core);
      }
      const auto& succ = g.successors(ev.task);
      std::vector<int> remote_dests;
      for (const TaskId s : succ) {
        const int dst = exec_proc[static_cast<std::size_t>(s)];
        if (dst != proc &&
            std::find(remote_dests.begin(), remote_dests.end(), dst) ==
                remote_dests.end()) {
          remote_dests.push_back(dst);
        }
      }
      result.messages += static_cast<long long>(remote_dests.size());
      result.message_bytes +=
          static_cast<double>(remote_dests.size()) *
          static_cast<double>(g.info(ev.task).output_bytes);

      // Per-destination arrival delays (binomial tree or flat broadcast).
      std::vector<double> dest_delay(remote_dests.size());
      for (std::size_t d = 0; d < remote_dests.size(); ++d) {
        dest_delay[d] = cfg.comm.broadcast_cost(
            g.info(ev.task).output_bytes, static_cast<int>(d));
      }
      for (const TaskId s : succ) {
        const int dst = exec_proc[static_cast<std::size_t>(s)];
        double arrive = now;
        if (dst != proc) {
          const auto it =
              std::find(remote_dests.begin(), remote_dests.end(), dst);
          arrive = now + dest_delay[static_cast<std::size_t>(
                             it - remote_dests.begin())];
        }
        auto& rt_s = ready_time[static_cast<std::size_t>(s)];
        rt_s = std::max(rt_s, arrive);
        if (--pending[static_cast<std::size_t>(s)] == 0) {
          events.push({rt_s, 0, s, -1, seq++});
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    for (const int proc : touched) dispatch(proc, now);

    if (cfg.work_stealing) {
      // Idle processes with empty queues raid the most loaded peer,
      // paying the shipping cost of the stolen task's data up front.
      for (int rounds = 0; rounds < cfg.nproc; ++rounds) {
        bool stole = false;
        for (int thief = 0; thief < cfg.nproc; ++thief) {
          auto& tc = ready_cpu[static_cast<std::size_t>(thief)];
          auto& ta = ready_accel[static_cast<std::size_t>(thief)];
          if (idle_cpu[static_cast<std::size_t>(thief)].empty() ||
              !tc.empty() || !ta.empty()) {
            continue;
          }
          int victim = -1;
          std::size_t best_load = 0;
          for (int p = 0; p < cfg.nproc; ++p) {
            if (p == thief) continue;
            const std::size_t load =
                ready_cpu[static_cast<std::size_t>(p)].size() +
                ready_accel[static_cast<std::size_t>(p)].size();
            if (load > best_load) {
              best_load = load;
              victim = p;
            }
          }
          if (victim < 0) continue;
          auto& vc = ready_cpu[static_cast<std::size_t>(victim)];
          auto& va = ready_accel[static_cast<std::size_t>(victim)];
          const bool from_accel =
              vc.empty() || (!va.empty() && ReadyOrder{}(vc.top(), va.top()));
          auto& q = from_accel ? va : vc;
          const TaskId t = q.top().id;
          q.pop();
          exec_proc[static_cast<std::size_t>(t)] = thief;
          events.push({now + cfg.comm.cost(g.info(t).output_bytes), 0, t,
                       -1, seq++});
          stole = true;
        }
        if (!stole) break;
      }
    }
  }

  result.makespan = makespan;
  return result;
}

}  // namespace ptlr::rt
