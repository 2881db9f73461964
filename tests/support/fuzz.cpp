#include "support/fuzz.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "runtime/nested.hpp"

namespace ptlr::testing {

using rt::DataKey;
using rt::make_key;
using rt::TaskId;
using rt::TaskInfo;

// ------------------------------------------------------------- state ----

struct FuzzProgram::State {
  std::vector<Op> ops;
  /// Nested children per task (parallel to ops; empty for most shapes).
  /// Stable addresses: bodies capture ChildOp pointers.
  std::vector<std::vector<ChildOp>> child_ops;
  std::vector<double> cells;
  std::vector<double> initial;
  /// Fixed capacity (atomics are immovable); ops.size() entries are live.
  std::vector<std::atomic<long long>> counts;
  /// Child execution counts, indexed by ChildOp::slot. Sized once before
  /// any run (atomics are immovable).
  std::vector<std::atomic<long long>> child_counts;

  State(int nkeys, int ntasks_hint)
      : cells(static_cast<std::size_t>(nkeys)),
        initial(static_cast<std::size_t>(nkeys)),
        counts(static_cast<std::size_t>(ntasks_hint)) {
    ops.reserve(static_cast<std::size_t>(ntasks_hint));
    child_ops.reserve(static_cast<std::size_t>(ntasks_hint));
    for (std::size_t k = 0; k < cells.size(); ++k)
      initial[k] = cells[k] = 1.0 + 0.0625 * static_cast<double>(k);
    for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  }
};

namespace {

// One task's arithmetic. Deliberately non-commutative and non-associative:
// reordering two writers of a cell, or letting a reader see a stale value,
// changes the bits of the result.
void apply_op(std::vector<double>& cells, const FuzzProgram::Op& op,
              TaskId id) {
  double acc = 1.0 + 1e-3 * static_cast<double>(id);
  for (const int r : op.reads)
    acc = 0.75 * acc + cells[static_cast<std::size_t>(r)];
  for (std::size_t w = 0; w < op.writes.size(); ++w) {
    double& cell = cells[static_cast<std::size_t>(op.writes[w])];
    cell = 0.5 * cell + acc + 0.125 * static_cast<double>(w);
  }
}

// Reference evaluation of a nested-children tree in spawn order. Exact for
// the parallel run because siblings write disjoint private cells and read
// only cells that are stable for the parent's whole span — any
// interleaving of the children computes these bits.
void apply_children_ref(std::vector<double>& cells,
                        const std::vector<FuzzProgram::ChildOp>& kids) {
  for (const auto& c : kids) {
    apply_op(cells, c.op, static_cast<TaskId>(c.pseudo_id));
    apply_children_ref(cells, c.kids);
  }
}

}  // namespace

// ------------------------------------------------------- construction ----

FuzzProgram::FuzzProgram(int nkeys, int ntasks_hint)
    : state_(std::make_unique<State>(nkeys, ntasks_hint)) {}

FuzzProgram::FuzzProgram(FuzzProgram&&) noexcept = default;
FuzzProgram& FuzzProgram::operator=(FuzzProgram&&) noexcept = default;
FuzzProgram::~FuzzProgram() = default;

TaskId FuzzProgram::add_op(TaskInfo info, Op op) {
  return add_op(std::move(info), std::move(op), {});
}

namespace {

// Parallel evaluation of a nested-children tree: spawn each child through
// rt::TaskGroup (inline when no worker context is installed — plain
// threads outside execute()), grandchildren recursively from
// inside the child. Count slots and private write cells are disjoint per
// child, so concurrent execution is race-free by construction.
void run_children_par(std::vector<double>& cells,
                      std::vector<std::atomic<long long>>& child_counts,
                      const std::vector<FuzzProgram::ChildOp>& kids) {
  rt::TaskGroup tg;
  for (const auto& c : kids) {
    tg.spawn([&cells, &child_counts, &c] {
      child_counts[static_cast<std::size_t>(c.slot)].fetch_add(
          1, std::memory_order_relaxed);
      apply_op(cells, c.op, static_cast<TaskId>(c.pseudo_id));
      if (!c.kids.empty()) run_children_par(cells, child_counts, c.kids);
    });
  }
  tg.sync();
}

// Flatten a children tree's cell footprint (reads and writes separately).
void collect_child_cells(const std::vector<FuzzProgram::ChildOp>& kids,
                         std::vector<int>& reads, std::vector<int>& writes) {
  for (const auto& c : kids) {
    reads.insert(reads.end(), c.op.reads.begin(), c.op.reads.end());
    writes.insert(writes.end(), c.op.writes.begin(), c.op.writes.end());
    collect_child_cells(c.kids, reads, writes);
  }
}

}  // namespace

TaskId FuzzProgram::add_op(TaskInfo info, Op op,
                           std::vector<ChildOp> children) {
  // The parent's graph footprint covers every descendant: a child's reads
  // become parent reads and its private output cells parent writes, so
  // the dataflow rules serialize any other graph task touching them
  // against the whole fork/join scope.
  std::vector<int> rcells = op.reads, wcells = op.writes;
  collect_child_cells(children, rcells, wcells);
  const auto dedup = [](std::vector<int>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedup(rcells);
  dedup(wcells);
  std::vector<DataKey> reads, writes;
  reads.reserve(rcells.size());
  writes.reserve(wcells.size());
  for (const int r : rcells)
    reads.push_back(make_key(0, 0, static_cast<std::uint32_t>(r)));
  for (const int w : wcells)
    writes.push_back(make_key(0, 0, static_cast<std::uint32_t>(w)));

  const auto id = static_cast<TaskId>(state_->ops.size());
  PTLR_CHECK(static_cast<std::size_t>(id) < state_->counts.size(),
             "FuzzProgram task-count hint too small");
  state_->ops.push_back(std::move(op));
  state_->child_ops.push_back(std::move(children));
  State* st = state_.get();  // heap state: stable across moves of *this
  info.fn = [st, id] {
    st->counts[static_cast<std::size_t>(id)].fetch_add(
        1, std::memory_order_relaxed);
    apply_op(st->cells, st->ops[static_cast<std::size_t>(id)], id);
    const auto& kids = st->child_ops[static_cast<std::size_t>(id)];
    if (!kids.empty()) run_children_par(st->cells, st->child_counts, kids);
  };
  return graph_.add_task(std::move(info), reads, writes);
}

FuzzProgram FuzzProgram::random(Rng& rng, int ntasks, int nkeys) {
  FuzzProgram p(nkeys, ntasks);
  for (int t = 0; t < ntasks; ++t) {
    Op op;
    const int nr = static_cast<int>(rng.integer(0, 3));
    const int nw = static_cast<int>(rng.integer(0, 2));
    for (int r = 0; r < nr; ++r)
      op.reads.push_back(static_cast<int>(rng.integer(0, nkeys - 1)));
    for (int w = 0; w < nw; ++w)
      op.writes.push_back(static_cast<int>(rng.integer(0, nkeys - 1)));
    TaskInfo info;
    info.name = "f" + std::to_string(t);
    info.priority = rng.uniform();
    p.add_op(std::move(info), std::move(op));
  }
  return p;
}

FuzzProgram FuzzProgram::diamond(int layers, int width) {
  // Cell 0 is the join datum; cells 1..width are the middle lanes.
  FuzzProgram p(width + 1, layers * (width + 2));
  for (int l = 0; l < layers; ++l) {
    TaskInfo src;
    src.name = "src" + std::to_string(l);
    p.add_op(std::move(src), Op{{}, {0}});
    for (int w = 0; w < width; ++w) {
      TaskInfo mid;
      mid.name = "mid" + std::to_string(l) + "_" + std::to_string(w);
      mid.priority = w;  // skewed priorities invite inversions
      p.add_op(std::move(mid), Op{{0}, {1 + w}});
    }
    TaskInfo sink;
    sink.name = "sink" + std::to_string(l);
    Op join;
    for (int w = 0; w < width; ++w) join.reads.push_back(1 + w);
    join.writes.push_back(0);
    p.add_op(std::move(sink), std::move(join));
  }
  return p;
}

FuzzProgram FuzzProgram::fork_join(int stages, int fanout) {
  // Cell 0 is the barrier datum; cells 1..fanout are persistent lanes.
  FuzzProgram p(fanout + 1, stages * (fanout + 1));
  for (int s = 0; s < stages; ++s) {
    for (int f = 0; f < fanout; ++f) {
      TaskInfo work;
      work.name = "w" + std::to_string(s) + "_" + std::to_string(f);
      work.priority = (s + f) % 3;
      p.add_op(std::move(work), Op{{0, 1 + f}, {1 + f}});
    }
    TaskInfo barrier;
    barrier.name = "join" + std::to_string(s);
    Op join;
    for (int f = 0; f < fanout; ++f) join.reads.push_back(1 + f);
    join.writes.push_back(0);
    p.add_op(std::move(barrier), std::move(join));
  }
  return p;
}

FuzzProgram FuzzProgram::band_cholesky(int ntiles, int band) {
  // One cell per lower-triangular tile (i, j), i >= j.
  const auto cell = [ntiles](int i, int j) { return i * ntiles + j; };
  FuzzProgram p(ntiles * ntiles, ntiles * ntiles * ntiles);
  const auto panel_priority = [ntiles](int k) {
    return static_cast<double>(ntiles - k);  // early panels first (Fig. 9)
  };
  for (int k = 0; k < ntiles; ++k) {
    TaskInfo potrf;
    potrf.name = "potrf" + std::to_string(k);
    potrf.kind = 0;
    potrf.panel = k;
    potrf.priority = panel_priority(k) + 0.75;
    p.add_op(std::move(potrf), Op{{cell(k, k)}, {cell(k, k)}});
    for (int i = k + 1; i < ntiles; ++i) {
      TaskInfo trsm;
      trsm.name = "trsm" + std::to_string(i) + "_" + std::to_string(k);
      trsm.kind = (i - k < band) ? 1 : 2;  // dense-band vs. TLR flavour
      trsm.panel = k;
      trsm.priority = panel_priority(k) + 0.5;
      p.add_op(std::move(trsm), Op{{cell(k, k), cell(i, k)}, {cell(i, k)}});
    }
    for (int i = k + 1; i < ntiles; ++i)
      for (int j = k + 1; j <= i; ++j) {
        TaskInfo upd;
        upd.name = (i == j ? "syrk" : "gemm") + std::to_string(i) + "_" +
                   std::to_string(j) + "_" + std::to_string(k);
        upd.kind = (i - j < band) ? 3 : 4;
        upd.panel = k;
        upd.priority = panel_priority(k);
        Op op;
        op.reads = {cell(i, k), cell(j, k), cell(i, j)};
        op.writes = {cell(i, j)};
        p.add_op(std::move(upd), std::move(op));
      }
  }
  return p;
}

FuzzProgram FuzzProgram::nested(Rng& rng, int ntasks, int nkeys,
                                int max_children) {
  PTLR_CHECK(max_children >= 1, "nested(): max_children must be >= 1");
  // Plan the whole program (including every descendant) up front so the
  // child-slot count is known before construction: child_counts is sized
  // once (atomics are immovable) and each child writes a dedicated
  // private cell nkeys + slot that no other task or child touches.
  struct Planned {
    Op op;
    std::vector<ChildOp> kids;
    double priority = 0.0;
  };
  std::vector<Planned> plan;
  plan.reserve(static_cast<std::size_t>(ntasks));
  int nslots = 0;
  for (int t = 0; t < ntasks; ++t) {
    Planned pl;
    const int nr = static_cast<int>(rng.integer(0, 2));
    const int nw = static_cast<int>(rng.integer(0, 1));
    for (int r = 0; r < nr; ++r)
      pl.op.reads.push_back(static_cast<int>(rng.integer(0, nkeys - 1)));
    for (int w = 0; w < nw; ++w)
      pl.op.writes.push_back(static_cast<int>(rng.integer(0, nkeys - 1)));
    pl.priority = rng.uniform();
    if (rng.uniform() < 0.6) {
      const int nc = static_cast<int>(rng.integer(1, max_children));
      for (int c = 0; c < nc; ++c) {
        ChildOp ch;
        ch.slot = nslots++;
        ch.pseudo_id = ntasks + ch.slot;  // disjoint from graph TaskIds
        const int self = nkeys + ch.slot;
        // Children may read a cell the parent's footprint pins stable for
        // the whole fork/join scope, plus their private cell; they write
        // only the private cell, so siblings commute bitwise.
        if (!pl.op.reads.empty() && rng.uniform() < 0.8)
          ch.op.reads.push_back(pl.op.reads[0]);
        ch.op.reads.push_back(self);
        ch.op.writes.push_back(self);
        if (rng.uniform() < 0.3) {
          ChildOp g;
          g.slot = nslots++;
          g.pseudo_id = ntasks + g.slot;
          // The grandchild reads its parent child's cell — stable by the
          // time it runs, because the child wrote it before spawning.
          g.op.reads.push_back(self);
          g.op.reads.push_back(nkeys + g.slot);
          g.op.writes.push_back(nkeys + g.slot);
          ch.kids.push_back(std::move(g));
        }
        pl.kids.push_back(std::move(ch));
      }
    }
    plan.push_back(std::move(pl));
  }

  FuzzProgram p(nkeys + nslots, ntasks);
  p.state_->child_counts =
      std::vector<std::atomic<long long>>(static_cast<std::size_t>(nslots));
  for (auto& c : p.state_->child_counts) c.store(0, std::memory_order_relaxed);
  int t = 0;
  for (auto& pl : plan) {
    TaskInfo info;
    info.name = "n" + std::to_string(t++);
    info.priority = pl.priority;
    p.add_op(std::move(info), std::move(pl.op), std::move(pl.kids));
  }
  return p;
}

// --------------------------------------------------------- execution ----

std::vector<double> FuzzProgram::run_reference() const {
  std::vector<double> cells = state_->initial;
  for (std::size_t t = 0; t < state_->ops.size(); ++t) {
    apply_op(cells, state_->ops[t], static_cast<TaskId>(t));
    apply_children_ref(cells, state_->child_ops[t]);
  }
  return cells;
}

const std::vector<double>& FuzzProgram::cells() const {
  return state_->cells;
}

std::vector<long long> FuzzProgram::run_counts() const {
  std::vector<long long> out;
  out.reserve(state_->ops.size());
  for (std::size_t t = 0; t < state_->ops.size(); ++t)
    out.push_back(state_->counts[t].load(std::memory_order_relaxed));
  return out;
}

std::vector<long long> FuzzProgram::child_runs() const {
  std::vector<long long> out;
  out.reserve(state_->child_counts.size());
  for (const auto& c : state_->child_counts)
    out.push_back(c.load(std::memory_order_relaxed));
  return out;
}

void FuzzProgram::reset() {
  state_->cells = state_->initial;
  for (std::size_t t = 0; t < state_->ops.size(); ++t)
    state_->counts[t].store(0, std::memory_order_relaxed);
  for (auto& c : state_->child_counts) c.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- checkers ----

std::string check_ran_exactly_once(const std::vector<long long>& counts) {
  for (std::size_t t = 0; t < counts.size(); ++t) {
    if (counts[t] != 1) {
      std::ostringstream os;
      os << "task " << t << " ran " << counts[t] << " times (expected 1)";
      return os.str();
    }
  }
  return "";
}

std::string check_happens_before(const rt::TaskGraph& g,
                                 const std::vector<rt::TraceEvent>& trace) {
  if (static_cast<int>(trace.size()) != g.size())
    return "trace has " + std::to_string(trace.size()) + " events for " +
           std::to_string(g.size()) + " tasks";
  for (TaskId t = 0; t < g.size(); ++t) {
    const auto& ev = trace[static_cast<std::size_t>(t)];
    if (ev.seq_start < 0 || ev.seq_end < ev.seq_start) {
      std::ostringstream os;
      os << "task " << t << " (\"" << g.info(t).name
         << "\") has no valid happens-before stamps (seq_start="
         << ev.seq_start << ", seq_end=" << ev.seq_end << ")";
      return os.str();
    }
  }
  for (TaskId t = 0; t < g.size(); ++t)
    for (const TaskId s : g.successors(t)) {
      const auto& pe = trace[static_cast<std::size_t>(t)];
      const auto& se = trace[static_cast<std::size_t>(s)];
      if (!(pe.seq_end < se.seq_start)) {
        std::ostringstream os;
        os << "dependency violated: task " << s << " (\"" << g.info(s).name
           << "\", seq_start=" << se.seq_start << ") started before its "
           << "predecessor " << t << " (\"" << g.info(t).name
           << "\", seq_end=" << pe.seq_end << ") finished";
        return os.str();
      }
    }
  return "";
}

std::string check_cells_match(const std::vector<double>& got,
                              const std::vector<double>& want) {
  if (got.size() != want.size())
    return "cell count mismatch: " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    // Bitwise comparison: schedule-independence means *identical* results.
    if (std::memcmp(&got[k], &want[k], sizeof(double)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << "cell " << k << " diverged: got " << got[k] << ", oracle says "
         << want[k];
      return os.str();
    }
  }
  return "";
}

}  // namespace ptlr::testing
