#include "runtime/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "runtime/nested.hpp"
#include "runtime/ws_deque.hpp"

namespace ptlr::rt {

namespace {

// Per-task lifecycle for the watchdog's state dump. A gated task stays
// kStateGated until its gate opens.
enum TaskState : std::uint8_t {
  kStatePending = 0,
  kStateReady = 1,
  kStateRunning = 2,
  kStateDone = 3,
  kStateGated = 4,
};

// ------------------------------------------------ work-stealing pieces --

/// One worker of the work-stealing engine. Owner-local counters are
/// summed into SchedStats after the pool joins, so the hot path never
/// touches a shared cache line for statistics.
struct alignas(64) WsWorker {
  std::array<WsDeque, kSchedBands> bands;
  /// Cross-worker deposit slot for locality-directed placement. Touched
  /// only when a release diverts a task to the worker that last wrote its
  /// output tile (rare, and that worker is idle by construction), so the
  /// mutex is effectively uncontended.
  std::mutex inbox_mu;
  std::vector<std::pair<int, TaskId>> inbox;
  std::atomic<bool> inbox_nonempty{false};
  /// Private sleep channel: a pusher wakes exactly one worker through its
  /// own condition variable — no notify_all broadcast storms.
  std::mutex sleep_mu;
  std::condition_variable sleep_cv;
  bool signalled = false;  // under sleep_mu
  long long steals = 0;
  long long diverted = 0;
  long long wakeups = 0;
  long long parks = 0;
  double parked_seconds = 0.0;
  long long inline_runs = 0;
  long long divert_suppressed = 0;
};

/// Run-on-finisher chain cap: how many sole-released successors a worker
/// executes back-to-back before breaking the chain with a real push. The
/// cap bounds unfairness (a chain monopolizing one worker while higher
/// bands wait in its deque) and keeps the watchdog's ready/running dump
/// honest on pathological million-task chains.
constexpr int kInlineChainMax = 256;

/// Wake-futility backoff. A wake that delivers no work (the waker's deque
/// drained before we arrived — the steady state of a serial chain or a
/// narrow fork-join on an oversubscribed host) costs a futex round trip
/// and two context switches for nothing. After kFutileWakeLimit such
/// wakes in a row a worker stops advertising in the idle-set and parks on
/// an exponentially growing timeout instead (kNapBaseUs << k, capped at
/// 64x ≈ 12.8 ms), so pushers stop paying to wake it. Each useful find
/// decays the backoff by ONE step rather than clearing it: a lone task
/// caught by a nap-expiry rescan proves nothing about supply, and letting
/// it re-arm eager wakes puts the fork-join pathology on a ~3-wake
/// relapse cycle; only a streak of consecutive finds — real stealable
/// parallelism — walks the worker back to advertising.
constexpr int kFutileWakeLimit = 2;
constexpr int kNapBaseUs = 200;

/// Idle-worker bitmask. A worker advertises itself before sleeping; a
/// pusher claims (clears) one bit and wakes only that worker. seq_cst on
/// set/clear orders the bits against deque pushes, closing the classic
/// sleep/wakeup race (see the worker loop).
class IdleSet {
 public:
  explicit IdleSet(int n)
      : words_(static_cast<std::size_t>((n + 63) / 64)) {}

  void set(int w) {
    words_[word(w)].fetch_or(bit(w), std::memory_order_seq_cst);
  }

  /// Clear w's bit; true iff it was set (i.e. this caller claimed it).
  bool clear(int w) {
    return (words_[word(w)].fetch_and(~bit(w), std::memory_order_seq_cst) &
            bit(w)) != 0;
  }

  /// Claim any idle worker other than `exclude`; -1 when none.
  int pick(int exclude) {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::uint64_t v = words_[i].load(std::memory_order_seq_cst);
      while (v != 0) {
        const int b = std::countr_zero(v);
        const int w = static_cast<int>(i * 64) + b;
        const std::uint64_t m = std::uint64_t{1} << b;
        v &= ~m;
        if (w == exclude) continue;
        if ((words_[i].fetch_and(~m, std::memory_order_seq_cst) & m) != 0)
          return w;
      }
    }
    return -1;
  }

 private:
  static std::size_t word(int w) { return static_cast<std::size_t>(w) / 64; }
  static std::uint64_t bit(int w) {
    return std::uint64_t{1} << (static_cast<unsigned>(w) % 64);
  }
  std::vector<std::atomic<std::uint64_t>> words_;
};

constexpr std::uint64_t tile_key64(int i, int j) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
         static_cast<std::uint32_t>(j);
}

}  // namespace

ExecResult execute(TaskGraph& g, int nthreads, const ExecOptions& opts) {
  PTLR_CHECK(nthreads >= 1, "need at least one worker");
  PTLR_CHECK(g.gates() == 0 || (opts.open_gates && opts.on_stall),
             "a graph with gated tasks needs ExecOptions::open_gates and "
             "on_stall");
  if (opts.validate) g.validate();
  const int n = g.size();
  ExecResult result;
  if (n == 0) return result;

  const resil::RecoveryStats recovery_before = resil::snapshot();
  Perturber perturber(opts.perturb);
  const bool chaos = perturber.enabled();
  const double inversion_p = opts.perturb.inversion_probability;
  const resil::FaultInjector injector(opts.faults);

  // The per-task state stamps are consumed only by the watchdog's stall
  // dump; without a watchdog the vector is not even allocated (every
  // access below is gated on wd_on).
  const bool wd_on = opts.watchdog.enabled();
  std::vector<std::atomic<int>> pending(static_cast<std::size_t>(n));
  std::vector<std::atomic<std::uint8_t>> state(
      wd_on ? static_cast<std::size_t>(n) : 0);
  const std::vector<TaskMeta>& meta = g.meta();
  for (TaskId t = 0; t < n; ++t) {
    pending[static_cast<std::size_t>(t)].store(
        meta[static_cast<std::size_t>(t)].npred, std::memory_order_relaxed);
    if (wd_on)
      state[static_cast<std::size_t>(t)].store(
          g.gated(t) ? kStateGated : kStatePending, std::memory_order_relaxed);
  }

  std::vector<TraceEvent> trace;
  if (opts.record_trace) trace.resize(static_cast<std::size_t>(n));
  std::atomic<long long> seq_clock{0};
  std::atomic<long long> completed{0};
  // Fail-fast drain: once an unrecoverable error (or the watchdog) sets
  // this, workers stop popping — pending tasks are skipped and the pool
  // exits promptly instead of grinding through the rest of the graph.
  std::atomic<bool> cancelled{false};
  std::atomic<bool> watchdog_fired{false};
  std::mutex err_mu;
  std::exception_ptr first_error;

  WallTimer timer;

  // Per-worker Chase–Lev deques in priority bands; dependency release is
  // fully lock-free (the atomic `pending` counters gate readiness, the
  // finishing worker pushes newly-ready successors straight onto its own
  // deque); idle workers advertise themselves in a bitmask and get
  // targeted notify_one wakeups instead of notify_all broadcasts.
  const BandMap band_map = BandMap::from_graph(g);
  // Flat graphs populate band 0 only; skip the guaranteed-empty bands in
  // every pop/steal scan instead of paying three wasted reservation pops
  // (each a store-load barrier) per task. Chaos mode files tasks in random
  // bands, so it scans them all.
  const int nbands = chaos ? kSchedBands : band_map.bands_used();
  // Chaos mode's forced priority inversion: a released or seeded task
  // lands in a uniformly random band instead of its priority's.
  auto band_of = [&](double priority) -> int {
    if (chaos && perturber.decide(inversion_p))
      return static_cast<int>(perturber.below(kSchedBands));
    return band_map.band(priority);
  };
  std::vector<std::unique_ptr<WsWorker>> ws(
      static_cast<std::size_t>(nthreads));
  for (auto& w : ws) w = std::make_unique<WsWorker>();
  IdleSet idle(nthreads);
  std::atomic<int> remaining{n};
  std::atomic<bool> all_done{false};

  // Locality table: output tile (ti, tj) → the worker that last wrote
  // it. A released panel task is handed to that worker when it is idle,
  // so POTRF/TRSM land where their tile is cache-hot.
  // Built from the dense TaskMeta array, and skipped outright when the
  // graph carries no tile coordinates (flat fuzz/bench DAGs): this pass
  // plus the banding/seeding sweeps used to walk the ~200-byte Node
  // records, and at 10^6 tasks that setup cost alone was ~40% of an
  // empty-task run.
  std::unordered_map<std::uint64_t, int> tile_slot;
  if (g.tiled_tasks() > 0) {
    for (TaskId t = 0; t < n; ++t) {
      const TaskMeta& m = meta[static_cast<std::size_t>(t)];
      if (m.ti >= 0 && m.tj >= 0)
        tile_slot.emplace(tile_key64(m.ti, m.tj),
                          static_cast<int>(tile_slot.size()));
    }
  }
  std::vector<std::atomic<int>> last_writer(tile_slot.size());
  for (auto& a : last_writer) a.store(-1, std::memory_order_relaxed);
  auto slot_of = [&](TaskId t) -> int {
    const TaskMeta& m = meta[static_cast<std::size_t>(t)];
    if (m.ti < 0 || m.tj < 0) return -1;
    const auto it = tile_slot.find(tile_key64(m.ti, m.tj));
    return it == tile_slot.end() ? -1 : it->second;
  };

  auto signal = [&](int w) {
    WsWorker& ww = *ws[static_cast<std::size_t>(w)];
    {
      std::lock_guard<std::mutex> lk(ww.sleep_mu);
      ww.signalled = true;
    }
    ww.sleep_cv.notify_one();
  };
  auto wake_all = [&] {
    for (int w = 0; w < nthreads; ++w) signal(w);
  };
  // Claim one idle worker (if any) and wake exactly it.
  auto wake_one_idle = [&](int self) -> bool {
    const int w = idle.pick(self);
    if (w < 0) return false;
    signal(w);
    ws[static_cast<std::size_t>(self)]->wakeups++;
    return true;
  };

  // Records the error, cancels the run, wakes every worker. A parked
  // worker cannot miss it: signal() sets its flag under its sleep mutex.
  // The first cancellation also calls on_stall, which unblocks task
  // bodies and the gate opener waiting on something outside the pool.
  std::atomic<bool> stall_called{false};
  auto fail = [&](std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = err;
    }
    cancelled.store(true, std::memory_order_release);
    wake_all();
    if (opts.on_stall && !stall_called.exchange(true)) opts.on_stall();
  };

  // Run one task's body: perturbation stall, fault injection with
  // snapshot/restore retry, obs span, trace stamps.
  // Returns false when the run is condemned (fail() already called).
  auto run_task = [&](TaskId task, int wid) -> bool {
    if (wd_on)
      state[static_cast<std::size_t>(task)].store(kStateRunning,
                                                  std::memory_order_relaxed);
    perturber.maybe_stall();
    const TaskInfo& info = g.info(task);
    // Only tasks that declared their outputs are fault-targets: recovery
    // needs the snapshots to restore. Every task of a real Cholesky graph
    // declares its tile; graphs built without hooks (bare test graphs)
    // run uninjected.
    const bool inject = injector.enabled() && !info.outputs.empty() &&
                        opts.retry.max_retries > 0;
    std::vector<std::vector<char>> snapshots;
    if (inject) {
      snapshots.reserve(info.outputs.size());
      for (const TaskOutput& out : info.outputs)
        snapshots.push_back(out.save ? out.save() : std::vector<char>{});
    }
    const std::uint64_t site = static_cast<std::uint64_t>(task);

    // Observability span hook: bracket the body so the obs layer can
    // attribute the flops the kernels charge (and the ranks they
    // annotate) to this task. One relaxed load when tracing is off.
    // Retries re-open the span, so only the successful attempt's flops
    // are charged and the exactness contract of the counters holds.
    const bool obs_on = obs::enabled();
    const bool tracing = opts.record_trace;
    long long s0 = -1;
    double t0 = 0.0;
    if (tracing) {
      s0 = seq_clock.fetch_add(1, std::memory_order_relaxed);
      t0 = timer.seconds();
    }
    int attempt = 0;
    for (;;) {
      try {
        if (obs_on) obs::task_begin();
        if (inject) {
          if (injector.task_exception(site, attempt)) {
            resil::note(resil::ResilienceEvent::kFaultException, info.name);
            throw TransientError("injected transient fault in " + info.name);
          }
          if (injector.alloc_failure(site, attempt)) {
            resil::note(resil::ResilienceEvent::kFaultAlloc, info.name);
            throw TransientError("injected tile-allocation failure in " +
                                 info.name);
          }
        }
        if (info.fn) info.fn();
        if (inject) {
          if (const auto h = injector.poison(site, attempt)) {
            for (const TaskOutput& out : info.outputs) {
              if (out.poison && out.poison(*h)) {
                resil::note(resil::ResilienceEvent::kFaultPoison, info.name);
                break;
              }
            }
          }
          for (const TaskOutput& out : info.outputs) {
            if (out.finite && !out.finite())
              throw TransientError("non-finite output detected in " +
                                   info.name);
          }
        }
        break;  // attempt succeeded
      } catch (const TransientError&) {
        if (!inject || attempt >= opts.retry.max_retries) {
          fail(std::current_exception());
          return false;
        }
        for (std::size_t i = 0; i < info.outputs.size(); ++i) {
          if (info.outputs[i].restore)
            info.outputs[i].restore(snapshots[i]);
        }
        resil::note(resil::ResilienceEvent::kRetry,
                    info.name + " attempt " + std::to_string(attempt + 1));
        if (opts.retry.backoff_us > 0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(opts.retry.backoff_us << attempt));
        }
        ++attempt;
      } catch (...) {
        fail(std::current_exception());
        return false;
      }
    }
    if (attempt > 0)
      resil::note(resil::ResilienceEvent::kTaskRecovered, info.name);
    if (obs_on) {
      obs::task_end(info.name, info.kind, info.panel, info.ti, info.tj, wid,
                    static_cast<long long>(info.output_bytes));
    }
    if (tracing) {
      const double t1 = timer.seconds();
      const long long s1 = seq_clock.fetch_add(1, std::memory_order_relaxed);
      auto& ev = trace[static_cast<std::size_t>(task)];
      ev.task = task;
      ev.kind = info.kind;
      ev.panel = info.panel;
      ev.worker = wid;
      ev.start = t0;
      ev.end = t1;
      ev.seq_start = s0;
      ev.seq_end = s1;
    }
    if (wd_on) {
      state[static_cast<std::size_t>(task)].store(kStateDone,
                                                  std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  };

  // Watchdog: a monitor thread over the completed-task counter. If no task
  // completes for the configured deadline the run is wedged (deadlocked
  // body, lost wakeup, livelock); the watchdog converts the hang into a
  // descriptive error with a dump of where every task stood. It only
  // reads `completed` and calls `fail`.
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  std::thread wd_thread;
  auto start_watchdog = [&] {
    if (!opts.watchdog.enabled()) return;
    wd_thread = std::thread([&] {
      const auto deadline = opts.watchdog.deadline();
      auto tick = deadline / 4;
      if (tick < std::chrono::milliseconds(1))
        tick = std::chrono::milliseconds(1);
      long long last = -1;
      auto last_progress = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lock(wd_mu);
      for (;;) {
        if (wd_cv.wait_for(lock, tick, [&] { return wd_stop; })) return;
        const long long done = completed.load(std::memory_order_relaxed);
        const auto now = std::chrono::steady_clock::now();
        if (done != last) {
          last = done;
          last_progress = now;
          continue;
        }
        if (now - last_progress < deadline) continue;
        if (cancelled.load(std::memory_order_acquire)) return;

        // Stalled: dump task states, cancel, unblock whatever we can.
        std::ostringstream os;
        os << "watchdog: no task completed for " << opts.watchdog.deadline_ms
           << " ms (" << done << "/" << n << " tasks done)";
        const std::pair<std::uint8_t, const char*> groups[] = {
            {kStateRunning, "running"},
            {kStateReady, "ready"},
            {kStateGated, "pending on gate"},
            {kStatePending, "pending"}};
        for (const auto& [st, label] : groups) {
          long long count = 0;
          std::string names;
          for (TaskId t = 0; t < n; ++t) {
            if (state[static_cast<std::size_t>(t)].load(
                    std::memory_order_relaxed) != st)
              continue;
            ++count;
            if (count <= 16) {
              if (!names.empty()) names += ", ";
              names += g.info(t).name;
            }
          }
          os << "; " << label << " (" << count << ")";
          if (count > 0) os << ": " << names;
          if (count > 16) os << ", ...";
        }
        resil::note(resil::ResilienceEvent::kWatchdogFire, os.str());
        watchdog_fired.store(true, std::memory_order_release);
        fail(std::make_exception_ptr(Error(os.str())));
        return;
      }
    });
  };

  // Nested child-task substrate (runtime/nested.hpp). Children live in
  // per-worker kids deques beside the graph bands and are encoded in
  // find_work results as n + slot — no TaskIds, no watchdog states, no
  // entries in `pending`/`remaining` (a parent cannot complete before
  // its sync(), so termination detection never sees a dangling child).
  detail::NestedEngine nest(nthreads);
  nest.wake = [&wake_one_idle](int spawner) { wake_one_idle(spawner); };

  // Make a newly-ready task runnable. Default: the finishing worker's
  // own deque (the successor consumes what this worker just produced —
  // locality for free). If the worker that last wrote the successor's
  // output tile is idle, divert the task to it and wake exactly it.
  // Returns 1 when the task landed on the caller's own deque (the
  // caller may owe surplus wakeups), 0 when it was diverted.
  // allow_divert=false pins the push to the caller's deque — used when
  // breaking an inline chain, where scattering the continuation to an
  // idle worker would resume exactly the ping-pong the run-on-finisher
  // path exists to kill (counted in divert_suppressed).
  auto push_ready = [&](int self, TaskId s, bool allow_divert) -> int {
    if (wd_on)
      state[static_cast<std::size_t>(s)].store(kStateReady,
                                               std::memory_order_relaxed);
    // Read priority/owner from the dense metadata: touching the Node
    // record here would pull a cold ~200-byte task description into
    // cache per release just to band the push.
    const TaskMeta& sm = meta[static_cast<std::size_t>(s)];
    const int band = band_of(sm.priority);
    if (allow_divert) {
      int pref = -1;
      const int slot = slot_of(s);
      if (slot >= 0)
        pref = last_writer[static_cast<std::size_t>(slot)].load(
            std::memory_order_relaxed);
      if (pref < 0 && sm.owner > 0 && nthreads > 1)
        pref = sm.owner % nthreads;
      if (pref >= 0 && pref != self && pref < nthreads &&
          idle.clear(pref)) {
        WsWorker& pw = *ws[static_cast<std::size_t>(pref)];
        {
          std::lock_guard<std::mutex> lk(pw.inbox_mu);
          pw.inbox.emplace_back(band, s);
        }
        pw.inbox_nonempty.store(true, std::memory_order_release);
        signal(pref);
        WsWorker& me = *ws[static_cast<std::size_t>(self)];
        me.diverted++;
        me.wakeups++;
        return 0;
      }
    } else {
      ws[static_cast<std::size_t>(self)]->divert_suppressed++;
    }
    ws[static_cast<std::size_t>(self)]->bands[static_cast<std::size_t>(
        band)].push(s);
    return 1;
  };

  auto drain_inbox = [&](int self) {
    WsWorker& me = *ws[static_cast<std::size_t>(self)];
    if (!me.inbox_nonempty.load(std::memory_order_acquire)) return;
    std::vector<std::pair<int, TaskId>> batch;
    {
      std::lock_guard<std::mutex> lk(me.inbox_mu);
      batch.swap(me.inbox);
      me.inbox_nonempty.store(false, std::memory_order_relaxed);
    }
    for (const auto& [band, s] : batch)
      me.bands[static_cast<std::size_t>(band)].push(s);
  };

  // Gate hook: open(t) is the one release that comes from outside the
  // pool. When it is the task's last missing predecessor, the task goes
  // to an idle worker (any worker when none is idle) through the inbox-
  // and-signal path locality diverts use; signal() sets the flag under
  // the sleep mutex, so a worker about to park cannot miss it.
  std::vector<std::atomic<bool>> opened(
      g.gates() > 0 ? static_cast<std::size_t>(n) : 0);
  std::atomic<int> closed_gates{g.gates()};
  const std::function<void(TaskId)> open_gate = [&](TaskId t) {
    PTLR_CHECK(t >= 0 && t < n && g.gated(t),
               "open_gates: task " + std::to_string(t) + " has no gate");
    PTLR_CHECK(!opened[static_cast<std::size_t>(t)].exchange(
                   true, std::memory_order_acq_rel),
               "open_gates: gate of \"" + g.info(t).name +
                   "\" opened twice");
    closed_gates.fetch_sub(1, std::memory_order_acq_rel);
    if (wd_on)
      state[static_cast<std::size_t>(t)].store(kStatePending,
                                               std::memory_order_relaxed);
    if (pending[static_cast<std::size_t>(t)].fetch_sub(
            1, std::memory_order_acq_rel) != 1)
      return;
    if (wd_on)
      state[static_cast<std::size_t>(t)].store(kStateReady,
                                               std::memory_order_relaxed);
    int w = idle.pick(-1);
    if (w < 0) w = t % nthreads;
    WsWorker& target = *ws[static_cast<std::size_t>(w)];
    {
      std::lock_guard<std::mutex> lk(target.inbox_mu);
      target.inbox.emplace_back(
          band_of(meta[static_cast<std::size_t>(t)].priority), t);
    }
    target.inbox_nonempty.store(true, std::memory_order_release);
    signal(w);
  };

  // Children first in both scans: a child is a piece of an *already
  // running* parent, so finishing it brings a sync() — and therefore a
  // graph-task completion — closer than any fresh graph task would.
  // Chaos mode takes the oldest task of a band (a steal from its own
  // deque) instead of the newest half of the time.
  auto pop_own = [&](int self) -> TaskId {
    WsWorker& me = *ws[static_cast<std::size_t>(self)];
    const std::int32_t c =
        nest.lanes[static_cast<std::size_t>(self)]->kids.pop();
    if (c >= 0) return n + c;
    for (int b = nbands - 1; b >= 0; --b) {
      WsDeque& band = me.bands[static_cast<std::size_t>(b)];
      std::int32_t v = WsDeque::kEmpty;
      if (chaos && perturber.decide(0.5)) v = band.steal();
      if (v < 0) v = band.pop();
      if (v >= 0) return v;
    }
    return -1;
  };

  // Scan the other workers' deques, highest band first; retry as long
  // as any CAS aborted (work may remain behind a lost race). Chaos mode
  // starts the scan at a random victim.
  auto try_steal = [&](int self) -> TaskId {
    for (;;) {
      bool aborted = false;
      const int first =
          chaos ? static_cast<int>(perturber.below(
                      static_cast<std::uint64_t>(nthreads - 1)))
                : 0;
      for (int d = 0; d < nthreads - 1; ++d) {
        const int v = (self + 1 + (first + d) % (nthreads - 1)) % nthreads;
        WsWorker& victim = *ws[static_cast<std::size_t>(v)];
        const std::int32_t c =
            nest.lanes[static_cast<std::size_t>(v)]->kids.steal();
        if (c >= 0) {
          ws[static_cast<std::size_t>(self)]->steals++;
          return n + c;
        }
        if (c == WsDeque::kAbort) aborted = true;
        for (int b = nbands - 1; b >= 0; --b) {
          const std::int32_t r =
              victim.bands[static_cast<std::size_t>(b)].steal();
          if (r >= 0) {
            ws[static_cast<std::size_t>(self)]->steals++;
            return r;
          }
          if (r == WsDeque::kAbort) aborted = true;
        }
      }
      if (!aborted) return -1;
    }
  };

  auto find_work = [&](int self) -> TaskId {
    drain_inbox(self);
    const TaskId t = pop_own(self);
    if (t >= 0) return t;
    return try_steal(self);
  };

  // Seed the roots round-robin (or at their owner hint) before any
  // worker starts — single-threaded, so owner pushes are safe. Reverse
  // id order: owner pops are LIFO, so pushing high ids first makes each
  // worker start its equal-priority roots in insertion order.
  {
    int rr = 0;
    for (TaskId t = n - 1; t >= 0; --t) {
      const TaskMeta& m = meta[static_cast<std::size_t>(t)];
      if (m.npred != 0) continue;
      if (wd_on)
        state[static_cast<std::size_t>(t)].store(kStateReady,
                                                 std::memory_order_relaxed);
      const int w = m.owner > 0 ? m.owner % nthreads : (rr++ % nthreads);
      // push_prestart: the worker std::threads have not been created
      // yet, so their construction publishes all of this at once — no
      // per-root store-load barrier.
      ws[static_cast<std::size_t>(w)]
          ->bands[static_cast<std::size_t>(band_of(m.priority))]
          .push_prestart(t);
    }
  }

  auto worker = [&](int self) {
    WsWorker& me = *ws[static_cast<std::size_t>(self)];
    // Install the nested-spawn context for the lifetime of this worker:
    // any task body running here may open a TaskGroup and push children
    // into this worker's kids deque.
    detail::TaskContext ctx{&nest, self};
    const detail::ContextGuard ctx_guard(&ctx);
    // Completions are counted locally and flushed to the shared
    // `remaining` only when this worker runs dry — one atomic RMW per
    // dry spell instead of one per task. Correct because the global
    // count is only *needed* at the point some worker might park or the
    // run might be over, and both of those pass through a failed
    // find_work. Every park below is preceded by a flush.
    long long local_done = 0;
    // Wake-futility backoff state (see kFutileWakeLimit above):
    // `probing` marks the find_work attempt right after a wake, so a
    // failed probe can be charged as a futile wake.
    int futile = 0;
    bool probing = false;
    const auto flush = [&]() -> bool {  // true: this flush ended the run
      if (local_done == 0) return false;
      const int prev = remaining.fetch_sub(static_cast<int>(local_done),
                                           std::memory_order_acq_rel);
      const bool last = prev == static_cast<int>(local_done);
      local_done = 0;
      if (last) {
        all_done.store(true, std::memory_order_release);
        wake_all();
      }
      return last;
    };
    for (;;) {
      if (all_done.load(std::memory_order_acquire) ||
          cancelled.load(std::memory_order_acquire))
        return;
      TaskId task = find_work(self);
      if (task < 0) {
        if (flush()) return;
        // Spin briefly before parking. In phased graphs (fork-join
        // stages, panel barriers) the gap between releases is shorter
        // than a sleep/wake round trip, so paying a few yields here
        // avoids a futex wake plus two context switches per phase.
        // NOT while backing off: on an oversubscribed CPU each yield
        // with another runnable thread is a forced context switch, so a
        // worker that keeps probing-and-yielding never reaches the park
        // below and bleeds the busy worker's timeslices all run long —
        // exactly the fork-join pathology the backoff exists to stop.
        for (int spin = 0; spin < 64 && task < 0 && futile == 0; ++spin) {
          if (all_done.load(std::memory_order_acquire) ||
              cancelled.load(std::memory_order_acquire))
            return;
          std::this_thread::yield();
          task = find_work(self);
        }
      }
      if (task < 0) {
        if (probing) {
          // The wake that preceded this scan delivered nothing.
          probing = false;
          ++futile;
        }
        if (futile < kFutileWakeLimit) {
          // Out of work. Advertise idleness FIRST, then re-scan: a push
          // that raced with the first scan either happened before the
          // bit became visible (this second scan finds it) or after
          // (the pusher sees the bit and wakes us). seq_cst on both
          // sides makes the two cases exhaustive — no lost wakeup.
          idle.set(self);
          task = find_work(self);
          if (task < 0) {
            me.parks++;
            const auto park0 = std::chrono::steady_clock::now();
            std::unique_lock<std::mutex> lk(me.sleep_mu);
            me.sleep_cv.wait(lk, [&] {
              return me.signalled ||
                     all_done.load(std::memory_order_acquire) ||
                     cancelled.load(std::memory_order_acquire);
            });
            me.signalled = false;
            lk.unlock();
            me.parked_seconds += std::chrono::duration<double>(
                std::chrono::steady_clock::now() - park0).count();
            idle.clear(self);
            probing = true;
            continue;
          }
          idle.clear(self);
        } else {
          // Backoff: our recent wakes were all futile, so stop
          // advertising (pushers keep their futex syscalls) and nap on
          // a growing timeout. Not advertised ⇒ nobody signals us for
          // ordinary pushes, but all_done/cancelled still wake_all(),
          // so termination never waits on a nap; at worst, real new
          // work sits un-stolen for one nap interval before the expiry
          // rescan below finds it and starts decaying the backoff.
          me.parks++;
          const int shift = std::min(futile - kFutileWakeLimit, 6);
          const auto park0 = std::chrono::steady_clock::now();
          std::unique_lock<std::mutex> lk(me.sleep_mu);
          me.sleep_cv.wait_for(
              lk, std::chrono::microseconds(kNapBaseUs << shift), [&] {
                return me.signalled ||
                       all_done.load(std::memory_order_acquire) ||
                       cancelled.load(std::memory_order_acquire);
              });
          me.signalled = false;
          lk.unlock();
          me.parked_seconds += std::chrono::duration<double>(
              std::chrono::steady_clock::now() - park0).count();
          probing = true;
          continue;
        }
      }

      // Work in hand: decay the backoff by one step instead of
      // resetting it. A single hit from a nap-expiry rescan (stealing
      // the one task a phase briefly exposes) must not re-enter the
      // advertise/wake/probe cycle that just proved futile — only a
      // streak of consecutive successful finds, i.e. a genuine supply
      // of stealable work, walks the worker back to eager wakes.
      if (futile > 0) --futile;
      probing = false;

      if (task >= n) {
        // A child task: raw body, no graph ceremony (no trace span, no
        // completion count, no release loop — the parent's sync() is
        // the join point).
        nest.run_child(task - n);
        continue;
      }

      // Run-on-finisher: run the task, and as long as it releases
      // exactly one successor, keep executing the released task right
      // here — a serial dependency chain becomes a loop of plain calls
      // with no deque round trip, no divert and no wakeup per hop. The
      // chain breaks on fan-out (>1 released), a sink (0 released), the
      // depth cap, cancellation, or a chaos-mode coin.
      int chain_depth = 0;
      for (;;) {
        if (!run_task(task, self)) return;
        // Chaos mode's second stall point: between a body and the
        // release of its successors.
        if (chaos) perturber.maybe_stall();

        // Remember who touched the output tile, then release
        // successors — no lock anywhere on this path.
        const int slot = slot_of(task);
        if (slot >= 0)
          last_writer[static_cast<std::size_t>(slot)].store(
              self, std::memory_order_relaxed);
        TaskId sole = -1;
        int released = 0;
        int pushed = 0;
        for (const TaskId s : g.successors(task)) {
          if (pending[static_cast<std::size_t>(s)].fetch_sub(
                  1, std::memory_order_acq_rel) == 1) {
            if (++released == 1) {
              sole = s;
            } else {
              if (sole >= 0) {
                pushed += push_ready(self, sole, /*allow_divert=*/true);
                sole = -1;
              }
              pushed += push_ready(self, s, /*allow_divert=*/true);
            }
          }
        }
        ++local_done;
        if (sole < 0) {
          // Fan-out (or sink). This worker pops one of its fresh pushes
          // itself; the surplus can feed idle workers, one targeted
          // wakeup each. Keying wakes off this release (not total deque
          // backlog) is safe: a worker only parks after its steal scan
          // saw every deque empty, so any backlog beyond these pushes
          // was already visible to — and declined by — every
          // currently-idle worker. A sole-released successor never
          // reaches the wake path at all: it is about to run inline (or
          // be re-popped by this same worker at the depth cap), so a
          // notify_one for it could only buy a futile wake.
          for (int i = 1; i < pushed && wake_one_idle(self); ++i) {}
          break;
        }
        if (chain_depth >= kInlineChainMax ||
            cancelled.load(std::memory_order_acquire) ||
            (chaos && perturber.decide(inversion_p))) {
          push_ready(self, sole, /*allow_divert=*/false);
          break;
        }
        me.inline_runs++;
        ++chain_depth;
        task = sole;
      }
    }
  };

  start_watchdog();
  // A gated graph runs worker 0 on the calling thread, beside the opener:
  // the tiles its tasks allocate then come from the caller's malloc arena.
  // A distributed rank's slice allocates where its replica lives that way;
  // on a pool thread, whose arena kept each replaced tile's memory apart,
  // a mesh rank's peak RSS grew by half.
  const int first_pooled = g.gates() > 0 ? 1 : 0;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(nthreads));
  for (int w = first_pooled; w < nthreads; ++w) pool.emplace_back(worker, w);
  // The gate opener runs beside the pool. A run that completes has seen
  // every gate open; a cancelled one has called on_stall, which unblocks
  // the opener — so both joins below return.
  std::thread opener;
  if (opts.open_gates) {
    opener = std::thread([&] {
      try {
        opts.open_gates(open_gate);
        const int left = closed_gates.load(std::memory_order_acquire);
        PTLR_CHECK(left == 0 || cancelled.load(std::memory_order_acquire),
                   "open_gates returned with " + std::to_string(left) +
                       " gates still closed");
      } catch (...) {
        fail(std::current_exception());
      }
    });
  }
  if (first_pooled == 1) worker(0);
  for (auto& th : pool) th.join();
  if (opener.joinable()) opener.join();
  for (const auto& w : ws) {
    result.sched.steals += w->steals;
    result.sched.diverted += w->diverted;
    result.sched.wakeups += w->wakeups;
    result.sched.parks += w->parks;
    result.sched.parked_seconds += w->parked_seconds;
    result.sched.inline_runs += w->inline_runs;
    result.sched.divert_suppressed += w->divert_suppressed;
  }
  for (const auto& lane : nest.lanes)
    result.sched.nested_spawned += lane->spawned;

  if (wd_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mu);
      wd_stop = true;
    }
    wd_cv.notify_all();
    wd_thread.join();
  }

  result.recovery = resil::diff(recovery_before, resil::snapshot());
  if (first_error) {
    // A watchdog-cancelled run flushes the obs trace before throwing so
    // the post-mortem timeline survives the error path.
    if (watchdog_fired.load(std::memory_order_acquire) && obs::enabled()) {
      try {
        obs::write_chrome_trace_from_env();
      } catch (...) {
        // the stall error below is the more useful diagnostic
      }
    }
    std::rethrow_exception(first_error);
  }
  result.seconds = timer.seconds();
  result.trace = std::move(trace);
  return result;
}

ExecResult execute(TaskGraph& g, int nthreads, bool record_trace) {
  ExecOptions opts;
  opts.record_trace = record_trace;
  return execute(g, nthreads, opts);
}

std::vector<double> panel_release_times(
    const std::vector<TraceEvent>& trace) {
  int max_panel = -1;
  for (const auto& ev : trace) max_panel = std::max(max_panel, ev.panel);
  std::vector<double> out(static_cast<std::size_t>(max_panel + 1), 0.0);
  for (const auto& ev : trace) {
    if (ev.panel >= 0)
      out[static_cast<std::size_t>(ev.panel)] =
          std::max(out[static_cast<std::size_t>(ev.panel)], ev.end);
  }
  return out;
}

std::vector<double> busy_per_process(const std::vector<TraceEvent>& trace,
                                     int nproc) {
  std::vector<double> busy(static_cast<std::size_t>(nproc), 0.0);
  for (const auto& ev : trace) {
    if (ev.proc >= 0 && ev.proc < nproc)
      busy[static_cast<std::size_t>(ev.proc)] += ev.end - ev.start;
  }
  return busy;
}

}  // namespace ptlr::rt
