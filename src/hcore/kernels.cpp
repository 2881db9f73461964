#include "hcore/kernels.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "dense/blas.hpp"
#include "dense/lapack.hpp"
#include "hcore/scratch.hpp"
#include "obs/trace.hpp"
#include "resilience/stats.hpp"

namespace ptlr::hcore {

// Every macro-kernel below reaches its O(b^3) volume through the public
// dense:: entry points (potrf/trsm/syrk/gemm). Those entries spawn nested
// child tasks over their independent rhs/row chunks when the kernel runs
// inside a ws-engine task and the volume clears the cutoff
// (dense/gemm_kernel.hpp, runtime/nested.hpp) — so the band's big dense
// tiles parallelize *inside* one graph task with no change here, and the
// per-kernel flop accounting (charged at those same entries, on this
// thread) is untouched by where the children execute.

using dense::ConstMatrixView;
using dense::Matrix;
using dense::MatrixView;
using dense::Trans;
using flops::Kernel;

namespace {

// Report the kernel the dispatch actually selected (and, for low-rank
// operands, the ranks flowing through it) to the open observability span.
// A single relaxed load when tracing is off.
Kernel observed(Kernel k, int rank_in = -1, int rank_out = -1) {
  if (obs::enabled()) {
    obs::annotate_kernel(static_cast<int>(k));
    if (rank_in >= 0 || rank_out >= 0) obs::annotate_ranks(rank_in, rank_out);
  }
  return k;
}

}  // namespace

flops::Kernel potrf(Tile& akk) {
  PTLR_CHECK(akk.is_dense(), "(1)-POTRF needs a dense diagonal tile");
  dense::potrf(dense::Uplo::Lower, akk.dense_data().view());
  return observed(Kernel::kPotrf1);
}

flops::Kernel trsm(const Tile& akk, Tile& amk) {
  PTLR_CHECK(akk.is_dense(), "TRSM needs a dense factored diagonal tile");
  const Kernel kind = trsm_kind(amk.is_dense());
  const ConstMatrixView l = akk.dense_data().view();
  if (amk.is_dense()) {
    // (1)-TRSM: X · L^T = A, i.e. right-solve against the lower factor.
    dense::trsm(dense::Side::Right, dense::Uplo::Lower, Trans::T,
                dense::Diag::NonUnit, 1.0, l, amk.dense_data().view());
    return observed(kind);
  }
  // (4)-TRSM: (U V^T) L^-T = U (L^-1 V)^T — solve L X = V in place.
  compress::LowRankFactor& f = amk.lr();
  if (f.rank() > 0) {
    dense::trsm(dense::Side::Left, dense::Uplo::Lower, Trans::N,
                dense::Diag::NonUnit, 1.0, l, f.v.view());
  }
  return observed(kind, f.rank(), f.rank());
}

flops::Kernel syrk(const Tile& amk, Tile& amm) {
  PTLR_CHECK(amm.is_dense(), "SYRK output (diagonal tile) must be dense");
  const Kernel kind = syrk_kind(amk.is_dense());
  MatrixView c = amm.dense_data().view();
  if (amk.is_dense()) {
    // (1)-SYRK.
    dense::syrk(dense::Uplo::Lower, Trans::N, -1.0,
                amk.dense_data().view(), 1.0, c);
    return observed(kind);
  }
  // (3)-SYRK: C -= U (V^T V) U^T.
  const compress::LowRankFactor& f = amk.lr();
  const int k = f.rank();
  if (k > 0) {
    const int b = f.rows();
    ScratchArena& ar = ScratchArena::local();
    const ScratchArena::Frame frame(ar);
    double* wbuf = ar.alloc(static_cast<std::size_t>(k) * k +
                            static_cast<std::size_t>(b) * k);
    MatrixView w(wbuf, k, k, k);
    MatrixView t1(wbuf + static_cast<std::size_t>(k) * k, b, k, b);
    dense::gemm(Trans::T, Trans::N, 1.0, f.v.view(), f.v.view(), 0.0, w);
    dense::gemm(Trans::N, Trans::N, 1.0, f.u.view(), w, 0.0, t1);
    // Only the lower triangle of the diagonal tile is referenced later,
    // but the tile is stored dense; update it fully for simplicity.
    dense::gemm(Trans::N, Trans::T, -1.0, t1, f.u.view(), 1.0, c);
  }
  return observed(kind, f.rank(), /*rank_out=*/-1);
}

namespace {

// C -= A·Bᵀ into a dense C, for any operand formats: (1)/(2)/(3)-GEMM.
// Returns the operand rank flowing through it (-1 for the all-dense
// (1)-GEMM). Temporaries come from the caller's arena frame.
int gemm_into_dense(const Tile& amk, const Tile& ank, MatrixView c,
                    ScratchArena& ar) {
  const bool a_d = amk.is_dense(), b_d = ank.is_dense();
  if (a_d && b_d) {
    // (1)-GEMM.
    dense::gemm(Trans::N, Trans::T, -1.0, amk.dense_data().view(),
                ank.dense_data().view(), 1.0, c);
    return -1;
  }
  if (a_d) {
    // C -= A (U_B V_B^T)^T = A V_B U_B^T. Cannot arise in a pure band
    // structure (a dense A[m][k] forces a dense A[n][k]) but occurs with
    // stray dense tiles kept when compression exceeded maxrank.
    const compress::LowRankFactor& b = ank.lr();
    const int kb = b.rank();
    if (kb > 0) {
      const int bm = amk.dense_data().rows();
      MatrixView t(ar.alloc(static_cast<std::size_t>(bm) * kb), bm, kb, bm);
      dense::gemm(Trans::N, Trans::N, 1.0, amk.dense_data().view(),
                  b.v.view(), 0.0, t);
      dense::gemm(Trans::N, Trans::T, -1.0, t, b.u.view(), 1.0, c);
    }
    return kb;
  }
  const compress::LowRankFactor& a = amk.lr();
  const int ka = a.rank();
  if (b_d) {
    // (2)-GEMM: C -= U_A (B V_A)^T.
    if (ka > 0) {
      const int bn = ank.dense_data().rows();
      MatrixView t(ar.alloc(static_cast<std::size_t>(bn) * ka), bn, ka, bn);
      dense::gemm(Trans::N, Trans::N, 1.0, ank.dense_data().view(),
                  a.v.view(), 0.0, t);
      dense::gemm(Trans::N, Trans::T, -1.0, a.u.view(), t, 1.0, c);
    }
    return ka;
  }
  // (3)-GEMM: C -= U_A (V_A^T V_B) U_B^T.
  const compress::LowRankFactor& b = ank.lr();
  const int kb = b.rank();
  if (ka > 0 && kb > 0) {
    const int bm = a.rows();
    double* buf = ar.alloc(static_cast<std::size_t>(ka) * kb +
                           static_cast<std::size_t>(bm) * kb);
    MatrixView w(buf, ka, kb, ka);
    MatrixView t(buf + static_cast<std::size_t>(ka) * kb, bm, kb, bm);
    dense::gemm(Trans::T, Trans::N, 1.0, a.v.view(), b.v.view(), 0.0, w);
    dense::gemm(Trans::N, Trans::N, 1.0, a.u.view(), w, 0.0, t);
    dense::gemm(Trans::N, Trans::T, -1.0, t, b.u.view(), 1.0, c);
  }
  return std::max(ka, kb);
}

}  // namespace

flops::Kernel gemm(const Tile& amk, const Tile& ank, Tile& amn,
                   const Accuracy& acc, bool round) {
  const Kernel kind = gemm_kind(amk.is_dense(), ank.is_dense(), round);
  // A low-rank C becomes its own dense accumulator at its first update.
  if (amn.is_lowrank()) amn.densify();
  ScratchArena& ar = ScratchArena::local();
  int rank_in = -1;
  {
    // Temporaries die with this frame; the thread-local arena hands the
    // same bytes to the next GEMM on this worker.
    const ScratchArena::Frame frame(ar);
    rank_in = gemm_into_dense(amk, ank, amn.dense_data().view(), ar);
  }
  // Only a (5)/(6)-GEMM compresses. A dense·dense product has no low-rank
  // form: a tile whose last update is one stays dense (densification on
  // demand, a (1)-GEMM).
  if (kind != Kernel::kGemm5 && kind != Kernel::kGemm6)
    return observed(kind, rank_in, /*rank_out=*/-1);

  // The tile's last update: compress the accumulated sum once.
  const int full = std::min(amn.rows(), amn.cols());
  std::optional<compress::LowRankFactor> f =
      compress::compress(amn.dense_data().view(), acc);
  if (!f) {
    // Numerical rank past maxrank: keep the exact sum as a dense tile — no
    // accuracy loss, and every later kernel dispatches on the format.
    resil::note(resil::ResilienceEvent::kDenseFallback,
                "rank exceeds maxrank " + std::to_string(acc.maxrank));
    return observed(kind, full, full);
  }
  const int knew = f->rank();
  // Adaptive on-demand densification (Section IX future work): past the
  // admissible ratio, low-rank arithmetic on this tile has stopped paying
  // off, so it keeps the exact sum dense.
  if (acc.densify_ratio > 0.0 && knew > acc.densify_ratio * full)
    return observed(kind, full, knew);
  amn = Tile::make_lowrank(std::move(*f));
  return observed(kind, full, knew);
}

flops::Kernel gemm(const Tile& amk, const Tile& ank, Tile& amn,
                   const Accuracy& acc) {
  return gemm(amk, ank, amn, acc, amn.is_lowrank());
}

}  // namespace ptlr::hcore
