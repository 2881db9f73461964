#include "core/cholesky_graph.hpp"

#include <algorithm>

#include "core/task_costs.hpp"
#include "hcore/kernels.hpp"
#include "tlr/io.hpp"

namespace ptlr::core {

namespace {

using flops::Kernel;
using rt::DataKey;
using rt::make_key;
using rt::TaskInfo;

// Sub-block partition of one tile dimension for recursive kernels.
struct SubGrid {
  std::vector<int> off, sz;
  SubGrid(int n, int rb) {
    for (int o = 0; o < n; o += rb) {
      off.push_back(o);
      sz.push_back(std::min(rb, n - o));
    }
  }
  [[nodiscard]] int s() const { return static_cast<int>(off.size()); }
};

class Builder {
 public:
  Builder(tlr::TlrMatrix* mat, const RankMap* ranks, const GraphOptions& opt,
          bool skip_tlr_gemm)
      : mat_(mat), opt_(opt), slice_(opt.slice),
        skip_tlr_gemm_(skip_tlr_gemm),
        // A working copy: the generator tracks densification on demand (a
        // dense·dense last update), so every task is priced on the formats
        // its operands have when it runs.
        work_(mat != nullptr ? RankMap::from_matrix(*mat) : *ranks),
        costs_(work_, work_.tile_size(), 1) {
    nt_ = work_.nt();
    b_ = work_.tile_size();
    n_ = mat_ != nullptr ? mat_->n() : nt_ * b_;
    rb_ = opt_.recursive_block > 0 ? opt_.recursive_block
                                   : std::max(b_ / 4, 16);
    if (slice_ != nullptr)
      received_.assign(static_cast<std::size_t>(nt_) * (nt_ + 1) / 2, 0);
  }

  rt::TaskGraph build(GraphStats* stats) {
    for (int k = 0; k < nt_; ++k) {
      if (slice_ != nullptr && k == slice_->kill_step &&
          k >= slice_->frontier)
        add_barrier("kill", k, slice_->kill);
      add_potrf(k);
      for (int i = k + 1; i < nt_; ++i) add_trsm(k, i);
      for (int i = k + 1; i < nt_; ++i) {
        add_syrk(k, i);
        for (int j = k + 1; j < i; ++j) add_gemm(k, i, j);
      }
      if (slice_ != nullptr && slice_->ckpt_every > 0 &&
          (k + 1) % slice_->ckpt_every == 0 && k + 1 < nt_ &&
          k >= slice_->frontier)
        add_barrier("ckpt", k, slice_->ckpt);
    }
    if (stats != nullptr) *stats = stats_;
    return std::move(g_);
  }

 private:
  // ------------------------------------------------------------ helpers --
  [[nodiscard]] std::size_t tri(int i, int j) const {
    return static_cast<std::size_t>(i) * (i + 1) / 2 + j;
  }
  [[nodiscard]] int rows_of(int i) const { return std::min(b_, n_ - i * b_); }
  [[nodiscard]] int owner(int i, int j) const {
    return opt_.dist != nullptr ? opt_.dist->owner(i, j) : 0;
  }
  /// False for a task a rank slice leaves out: another rank's, or one of a
  /// step before the frontier.
  [[nodiscard]] bool kept(int i, int j, int k) const {
    return slice_ == nullptr ||
           (owner(i, j) == slice_->rank && k >= slice_->frontier);
  }
  [[nodiscard]] std::size_t tile_bytes(int i, int j) const {
    if (work_.is_dense(i, j))
      return static_cast<std::size_t>(rows_of(i)) * rows_of(j) * 8;
    return 2ull * static_cast<std::size_t>(b_) *
           std::max(work_.rank(i, j), 1) * 8;
  }
  [[nodiscard]] static DataKey tile_key(int i, int j) {
    return make_key(0, static_cast<std::uint32_t>(i),
                    static_cast<std::uint32_t>(j));
  }
  [[nodiscard]] DataKey sub_key(int i, int j, int ii, int jj) const {
    return make_key(1, static_cast<std::uint32_t>(i * nt_ + j),
                    static_cast<std::uint32_t>(ii * 4096 + jj));
  }
  DataKey next_token() {
    const auto c = token_++;
    return make_key(2, static_cast<std::uint32_t>(c >> 24),
                    static_cast<std::uint32_t>(c & 0xFFFFFF));
  }
  [[nodiscard]] double dur_flops(double f, bool dense_class) const {
    return opt_.cost != nullptr ? opt_.cost->duration_flops(f, dense_class)
                                : 0.0;
  }
  [[nodiscard]] double prio(int panel, double boost) const {
    return (nt_ - panel) * 16.0 + boost;
  }
  void charge(const hcore::TaskCost& c) {
    stats_.model_flops += c.flops;
    if (flops::is_dense_class(c.charged)) stats_.model_flops_dense += c.flops;
  }
  // The task's kind, device class and modelled duration on `rows` rows.
  void set_kernel(TaskInfo& t, const hcore::TaskCost& c, int rows) const {
    t.kind = static_cast<int>(c.kernel);
    t.device_class = flops::is_dense_class(c.kernel) ? 1 : 0;
    t.duration = opt_.cost != nullptr
                     ? opt_.cost->duration(c.kernel, rows, c.rank)
                     : 0.0;
  }

  // Declare tile (i, j) as the task's (sole) output so the executor's
  // recovery layer can snapshot/restore it around fault-injected attempts.
  // Every real task writes exactly one whole tile (the recursion that
  // split tiles across tasks is modelled only), so every real task is
  // recoverable.
  void attach_output(TaskInfo& t, int i, int j) {
    if (mat_ == nullptr) return;
    auto* m = mat_;
    rt::TaskOutput out;
    out.save = [m, i, j] { return tlr::tile_to_bytes(m->at(i, j)); };
    out.restore = [m, i, j](const std::vector<char>& bytes) {
      m->at(i, j) = tlr::tile_from_bytes(bytes);
    };
    out.finite = [m, i, j] { return m->at(i, j).payload_finite(); };
    out.poison = [m, i, j](std::uint64_t h) {
      return m->at(i, j).poison_payload(h);
    };
    t.outputs.push_back(std::move(out));
  }

  rt::TaskId add(TaskInfo info, std::initializer_list<DataKey> reads,
                 std::initializer_list<DataKey> writes) {
    stats_.tasks++;
    return g_.add_task(std::move(info),
                       std::span<const DataKey>(reads.begin(), reads.size()),
                       std::span<const DataKey>(writes.begin(),
                                                writes.size()));
  }
  rt::TaskId addv(TaskInfo info, const std::vector<DataKey>& reads,
                  const std::vector<DataKey>& writes) {
    stats_.tasks++;
    return g_.add_task(std::move(info), reads, writes);
  }

  // ------------------------------------------------- rank-slice tasks --
  // recv(i, k) before the first kept reader of a remote tile (i, k). It
  // declares no output: a retry would need the consumed bytes again.
  void need(int i, int k) {
    if (slice_ == nullptr || owner(i, k) == slice_->rank) return;
    char& done = received_[tri(i, k)];
    if (done != 0) return;
    done = 1;
    TaskInfo t;
    t.name = "recv(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.kind = -1;
    t.panel = k;
    t.ti = i;
    t.tj = k;
    t.priority = prio(k, 14.0);
    t.owner = slice_->rank;
    t.fn = [recv = slice_->recv, i, k] { recv(i, k); };
    g_.add_gate(add(std::move(t), {}, {tile_key(i, k)}));
  }

  // send(i, k) after the kept POTRF/TRSM that factored tile (i, k).
  void add_send(int i, int k) {
    if (slice_ == nullptr) return;
    std::set<int> dests = tile_readers(*opt_.dist, nt_, i, k);
    dests.erase(slice_->rank);
    if (dests.empty()) return;
    TaskInfo t;
    t.name = "send(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.kind = -1;
    t.panel = k;
    t.ti = i;
    t.tj = k;
    t.priority = prio(k, 15.0);
    t.owner = slice_->rank;
    t.fn = [send = slice_->send, i, k, dests = std::move(dests)] {
      send(i, k, dests);
    };
    sends_.push_back(add(std::move(t), {tile_key(i, k)}, {}));
  }

  // ckpt(k) / kill(k): reads every owned tile, waits for every send so
  // far and for the barrier before it.
  void add_barrier(const char* what, int k,
                   const std::function<void(int)>& body) {
    TaskInfo t;
    t.name = std::string(what) + "(" + std::to_string(k) + ")";
    t.kind = -1;
    t.panel = k;
    t.priority = prio(k, 16.0);
    t.owner = slice_->rank;
    t.fn = [body, k] { body(k); };
    std::vector<DataKey> reads;
    for (int i = 0; i < nt_; ++i)
      for (int j = 0; j <= i; ++j)
        if (owner(i, j) == slice_->rank) reads.push_back(tile_key(i, j));
    const rt::TaskId id = addv(std::move(t), reads, {});
    for (const rt::TaskId s : sends_) g_.add_dependency(s, id);
    sends_.clear();
    if (last_barrier_ >= 0) g_.add_dependency(last_barrier_, id);
    last_barrier_ = id;
  }

  // ------------------------------------------------------ whole kernels --
  void add_potrf(int k) {
    if (!kept(k, k, k)) return;
    const hcore::TaskCost c = costs_.potrf();
    charge(c);
    const int bk = rows_of(k);
    const bool recurse = (opt_.recursive_all || opt_.recursive_potrf) &&
                         bk > rb_;
    if (recurse) {
      rec_potrf(k);
      return;
    }
    TaskInfo t;
    t.name = "potrf(" + std::to_string(k) + ")";
    t.panel = k;
    t.ti = k;
    t.tj = k;
    t.priority = prio(k, 12.0);
    t.owner = owner(k, k);
    set_kernel(t, c, bk);
    t.output_bytes = tile_bytes(k, k);
    if (mat_ != nullptr) {
      auto* m = mat_;
      // Rebase a breakdown's pivot index from in-tile (1-based) to global
      // (1-based) so the driver's shift-and-restart policy can report
      // where the factorization failed, independent of tiling.
      const int b = b_;
      t.fn = [m, k, b] {
        try {
          hcore::potrf(m->at(k, k));
        } catch (const NumericalError& e) {
          const std::int64_t pivot =
              static_cast<std::int64_t>(k) * b + e.info();
          throw NumericalError("cholesky breakdown: non-positive global "
                               "pivot " + std::to_string(pivot),
                               pivot);
        }
      };
      attach_output(t, k, k);
    }
    add(std::move(t), {}, {tile_key(k, k)});
    stats_.tasks_band++;
    add_send(k, k);
  }

  void add_trsm(int k, int i) {
    if (!kept(i, k, k)) return;
    const hcore::TaskCost c = costs_.trsm(i, k);
    charge(c);
    const bool dense_tile = work_.is_dense(i, k);
    if (dense_tile && opt_.recursive_all && rows_of(i) > rb_) {
      rec_trsm(k, i);
      return;
    }
    TaskInfo t;
    t.name = "trsm(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.panel = k;
    t.ti = i;
    t.tj = k;
    t.priority = prio(k, 8.0);
    t.owner = owner(i, k);
    set_kernel(t, c, rows_of(i));
    t.output_bytes = tile_bytes(i, k);
    if (mat_ != nullptr) {
      auto* m = mat_;
      t.fn = [m, k, i] { hcore::trsm(m->at(k, k), m->at(i, k)); };
      attach_output(t, i, k);
    }
    need(k, k);
    add(std::move(t), {tile_key(k, k)}, {tile_key(i, k)});
    if (dense_tile) stats_.tasks_band++;
    add_send(i, k);
  }

  void add_syrk(int k, int i) {
    if (!kept(i, i, k)) return;
    const hcore::TaskCost c = costs_.syrk(i, k);
    charge(c);
    const bool dense_a = work_.is_dense(i, k);
    if (dense_a && opt_.recursive_all && rows_of(i) > rb_) {
      rec_syrk(k, i);
      return;
    }
    TaskInfo t;
    t.name = "syrk(" + std::to_string(i) + "," + std::to_string(k) + ")";
    t.panel = k;
    t.ti = i;
    t.tj = i;
    t.priority = prio(k, 6.0);
    t.owner = owner(i, i);
    set_kernel(t, c, rows_of(i));
    t.output_bytes = tile_bytes(i, i);
    if (mat_ != nullptr) {
      auto* m = mat_;
      t.fn = [m, k, i] { hcore::syrk(m->at(i, k), m->at(i, i)); };
      attach_output(t, i, i);
    }
    need(i, k);
    add(std::move(t), {tile_key(i, k)}, {tile_key(i, i)});
    stats_.tasks_band++;
  }

  // The step-k update of C = (i, j). A dense C takes a (1)/(2)/(3)-GEMM.
  // A low-rank C is accumulated densely: its updates before step j-1 run
  // as the dense-output GEMM of their operands, and the one at step j-1
  // also compresses the tile once, the (5)/(6)-GEMM. Each update is charged
  // what Algorithm 1 charges for it (TaskCosts): (5)/(6) for every update
  // of a low-rank C, so the flop model is that of the right-looking
  // algorithm.
  void add_gemm(int k, int i, int j) {
    const bool cd = work_.is_dense(i, j);
    const bool round = !cd && k == j - 1;
    // Densification on demand: a dense·dense last update leaves C dense
    // (it and later kernels on C are the dense variants).
    if (round && work_.is_dense(i, k) && work_.is_dense(j, k))
      work_.densify(i, j);
    if (!kept(i, j, k)) return;
    if (skip_tlr_gemm_ && !cd) return;  // Fig. 10 "No_TLR_GEMM" variant
    const hcore::TaskCost c = costs_.gemm(i, j, k);
    charge(c);
    if (c.kernel == Kernel::kGemm1 && opt_.recursive_all &&
        rows_of(i) > rb_ && cd) {
      rec_gemm(k, i, j);
      return;
    }
    TaskInfo t;
    t.name = "gemm(" + std::to_string(i) + "," + std::to_string(j) + "," +
             std::to_string(k) + ")";
    t.panel = k;
    t.ti = i;
    t.tj = j;
    t.priority = prio(k, cd ? 4.0 : 0.0);
    t.owner = owner(i, j);
    set_kernel(t, c, b_);
    // Until its last update a low-rank C is held dense.
    t.output_bytes =
        cd || round ? tile_bytes(i, j)
                    : static_cast<std::size_t>(rows_of(i)) * rows_of(j) * 8;
    if (mat_ != nullptr) {
      auto* m = mat_;
      t.fn = [m, k, i, j, acc = opt_.acc, round] {
        hcore::gemm(m->at(i, k), m->at(j, k), m->at(i, j), acc, round);
      };
      attach_output(t, i, j);
    }
    need(i, k);
    need(j, k);
    add(std::move(t), {tile_key(i, k), tile_key(j, k)}, {tile_key(i, j)});
    if (cd || c.kernel == Kernel::kGemm1) stats_.tasks_band++;
  }

  // -------------------------------------------------- recursive kernels --
  // Modelled only (simulation mode, no bodies): each group is a split →
  // sub-kernels → merge sub-DAG. The split writes the whole-tile key
  // (inheriting all pending dependencies), sub-kernels synchronize through
  // a per-group token plus sub-block keys, and the merge re-publishes the
  // whole-tile key for downstream consumers. All group tasks run on the
  // tile owner (PaRSEC nested computing is process-local).

  struct Group {
    DataKey token;
    int proc;
    int panel;
    int ti, tj;  ///< whole-tile coordinates (inherited by sub-tasks)
    double priority;
  };

  Group open_group(const char* what, int panel, int i, int j, double boost) {
    Group grp{next_token(), owner(i, j), panel, i, j, prio(panel, boost)};
    TaskInfo s;
    s.name = std::string(what) + "_split(" + std::to_string(i) + "," +
             std::to_string(j) + ")";
    s.kind = -1;  // structural task, no kernel class
    s.panel = panel;
    s.ti = i;
    s.tj = j;
    s.priority = grp.priority + 1.0;
    s.owner = grp.proc;
    add(std::move(s), {}, {tile_key(i, j), grp.token});
    return grp;
  }

  void close_group(const char* what, const Group& grp, int i, int j,
                   const std::vector<DataKey>& sub_reads) {
    TaskInfo m;
    m.name = std::string(what) + "_merge(" + std::to_string(i) + "," +
             std::to_string(j) + ")";
    m.kind = -1;  // structural task, no kernel class
    m.panel = grp.panel;
    m.ti = i;
    m.tj = j;
    m.priority = grp.priority;
    m.owner = grp.proc;
    m.output_bytes = tile_bytes(i, j);
    addv(std::move(m), sub_reads, {tile_key(i, j)});
  }

  TaskInfo sub_info(const Group& grp, std::string name, Kernel kind,
                    double flop_count) {
    TaskInfo t;
    t.name = std::move(name);
    t.kind = static_cast<int>(kind);
    t.panel = grp.panel;
    t.ti = grp.ti;
    t.tj = grp.tj;
    t.priority = grp.priority;
    t.owner = grp.proc;
    t.device_class = 1;  // recursion only targets dense region-(1) kernels
    t.duration = dur_flops(flop_count, /*dense_class=*/true);
    return t;
  }

  void rec_potrf(int k) {
    const SubGrid gr(rows_of(k), rb_);
    const int s = gr.s();
    const Group grp = open_group("potrf", k, k, k, 12.0);
    std::vector<DataKey> subs;
    for (int kk = 0; kk < s; ++kk) {
      add(sub_info(grp, "potrf_sub", Kernel::kPotrf1, flops::potrf(gr.sz[kk])),
          {grp.token}, {sub_key(k, k, kk, kk)});
      subs.push_back(sub_key(k, k, kk, kk));
      for (int ii = kk + 1; ii < s; ++ii) {
        add(sub_info(grp, "trsm_sub", Kernel::kTrsm1,
                     flops::trsm(gr.sz[kk], gr.sz[ii])),
            {grp.token, sub_key(k, k, kk, kk)}, {sub_key(k, k, ii, kk)});
        subs.push_back(sub_key(k, k, ii, kk));
      }
      for (int ii = kk + 1; ii < s; ++ii) {
        add(sub_info(grp, "syrk_sub", Kernel::kSyrk1,
                     flops::syrk(gr.sz[ii], gr.sz[kk])),
            {grp.token, sub_key(k, k, ii, kk)}, {sub_key(k, k, ii, ii)});
        for (int jj = kk + 1; jj < ii; ++jj) {
          add(sub_info(grp, "gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gr.sz[jj], gr.sz[kk])),
              {grp.token, sub_key(k, k, ii, kk), sub_key(k, k, jj, kk)},
              {sub_key(k, k, ii, jj)});
        }
      }
    }
    close_group("potrf", grp, k, k, subs);
    stats_.tasks_band++;
  }

  void rec_trsm(int k, int i) {
    const SubGrid gr(rows_of(i), rb_), gc(rows_of(k), rb_);
    const Group grp = open_group("trsm", k, i, k, 8.0);
    std::vector<DataKey> subs;
    for (int j = 0; j < gc.s(); ++j) {
      for (int ii = 0; ii < gr.s(); ++ii) {
        for (int p = 0; p < j; ++p) {
          add(sub_info(grp, "trsm_gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gc.sz[j], gc.sz[p])),
              {grp.token, tile_key(k, k), sub_key(i, k, ii, p)},
              {sub_key(i, k, ii, j)});
        }
        add(sub_info(grp, "trsm_sub", Kernel::kTrsm1,
                     flops::trsm(gc.sz[j], gr.sz[ii])),
            {grp.token, tile_key(k, k)}, {sub_key(i, k, ii, j)});
        subs.push_back(sub_key(i, k, ii, j));
      }
    }
    close_group("trsm", grp, i, k, subs);
    stats_.tasks_band++;
  }

  void rec_syrk(int k, int i) {
    const SubGrid gr(rows_of(i), rb_), gc(rows_of(k), rb_);
    const Group grp = open_group("syrk", k, i, i, 6.0);
    std::vector<DataKey> subs;
    for (int ii = 0; ii < gr.s(); ++ii)
      for (int jj = 0; jj <= ii; ++jj) {
        for (int p = 0; p < gc.s(); ++p) {
          const bool diag = ii == jj;
          add(sub_info(grp, diag ? "syrk_sub" : "syrk_gemm_sub",
                       diag ? Kernel::kSyrk1 : Kernel::kGemm1,
                       diag ? flops::syrk(gr.sz[ii], gc.sz[p])
                            : flops::gemm(gr.sz[ii], gr.sz[jj], gc.sz[p])),
              {grp.token, tile_key(i, k)}, {sub_key(i, i, ii, jj)});
        }
        subs.push_back(sub_key(i, i, ii, jj));
      }
    close_group("syrk", grp, i, i, subs);
    stats_.tasks_band++;
  }

  void rec_gemm(int k, int i, int j) {
    const SubGrid gr(rows_of(i), rb_), gcn(rows_of(j), rb_),
        gp(rows_of(k), rb_);
    const Group grp = open_group("gemm", k, i, j, 4.0);
    std::vector<DataKey> subs;
    for (int ii = 0; ii < gr.s(); ++ii)
      for (int jj = 0; jj < gcn.s(); ++jj) {
        for (int p = 0; p < gp.s(); ++p) {
          add(sub_info(grp, "gemm_sub", Kernel::kGemm1,
                       flops::gemm(gr.sz[ii], gcn.sz[jj], gp.sz[p])),
              {grp.token, tile_key(i, k), tile_key(j, k)},
              {sub_key(i, j, ii, jj)});
        }
        subs.push_back(sub_key(i, j, ii, jj));
      }
    close_group("gemm", grp, i, j, subs);
    stats_.tasks_band++;
  }

  tlr::TlrMatrix* mat_;
  GraphOptions opt_;
  const RankSlice* slice_;
  bool skip_tlr_gemm_;
  std::vector<char> received_;  ///< per tile: recv task emitted (slice)
  std::vector<rt::TaskId> sends_;  ///< sends since the last barrier
  rt::TaskId last_barrier_ = -1;
  RankMap work_;                    ///< formats as the unrolling reaches them
  TaskCosts<RankMap> costs_;        ///< prices every task on work_
  int nt_ = 0, b_ = 0, n_ = 0, rb_ = 0;
  std::uint64_t token_ = 0;
  rt::TaskGraph g_;
  GraphStats stats_;
};

}  // namespace

std::set<int> tile_readers(const rt::Distribution& dist, int nt, int i,
                           int k) {
  std::set<int> dests;
  if (i == k) {
    for (int m = k + 1; m < nt; ++m) dests.insert(dist.owner(m, k));
    return dests;
  }
  dests.insert(dist.owner(i, i));
  for (int j = k + 1; j < i; ++j) dests.insert(dist.owner(i, j));
  for (int m = i + 1; m < nt; ++m) dests.insert(dist.owner(m, i));
  return dests;
}

rt::TaskGraph build_cholesky_graph(tlr::TlrMatrix& mat,
                                   const GraphOptions& opt,
                                   GraphStats* stats) {
  PTLR_CHECK(!opt.recursive_all && !opt.recursive_potrf,
             "recursive kernels are modelled only: real band tiles split "
             "through nested child tasks");
  PTLR_CHECK(opt.slice == nullptr || opt.dist != nullptr,
             "a rank slice needs a distribution");
  Builder b(&mat, nullptr, opt, false);
  return b.build(stats);
}

rt::TaskGraph build_cholesky_graph(const RankMap& ranks,
                                   const GraphOptions& opt,
                                   GraphStats* stats) {
  Builder b(nullptr, &ranks, opt, false);
  return b.build(stats);
}

rt::TaskGraph build_cholesky_graph_no_tlr_gemm(const RankMap& ranks,
                                               const GraphOptions& opt,
                                               GraphStats* stats) {
  Builder b(nullptr, &ranks, opt, true);
  return b.build(stats);
}

}  // namespace ptlr::core
