// Thread-local grow-only scratch arena for kernel temporaries.
//
// Every hcore kernel invocation needs a handful of short-lived work
// matrices (W = V_A^T V_B, T = U_A W, ...). A shared pool would pay a
// mutex round-trip and a free-list lookup per kernel — visible once the
// work-stealing executor removed the scheduler lock and task bodies became
// the hot path. The arena is a per-thread bump allocator instead:
//
//   * alloc() is a pointer bump into the current chunk — no lock, no
//     malloc once the arena has grown to the task's working-set size.
//   * A Frame brackets one kernel invocation; on destruction the arena
//     rewinds to where the frame opened, so the same bytes are reused by
//     the next kernel on this worker. Frames nest (kernels calling
//     helpers that take their own frame).
//   * Chunks are pointer-stable: growing never moves live allocations,
//     so views handed to BLAS stay valid across later alloc() calls in
//     the same frame.
//   * When the outermost frame unwinds and the arena holds several
//     chunks, they are coalesced into one chunk of the combined size, so
//     steady state is a single chunk and zero further allocations.
//
// The tile-sized, long-lived designations (U/V factors themselves) are
// each tile's own dense::Matrix storage, sized to the exact rank — the
// arena is only for temporaries that die with the kernel invocation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ptlr::hcore {

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena.
  static ScratchArena& local();

  /// Bump-allocate `n` doubles (uninitialized). Valid until the enclosing
  /// Frame unwinds. n == 0 returns a non-null one-past pointer that must
  /// not be dereferenced.
  double* alloc(std::size_t n);

  /// RAII scope: rewinds the arena to the state at construction, making
  /// the bytes reusable by the next frame on this thread.
  class Frame {
   public:
    explicit Frame(ScratchArena& a)
        : arena_(a), chunk_(a.cur_), off_(a.off_) {
      ++a.depth_;
    }
    ~Frame() { arena_.unwind(chunk_, off_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    ScratchArena& arena_;
    std::size_t chunk_;
    std::size_t off_;
  };

  struct Stats {
    std::size_t bytes_reserved = 0;  ///< total chunk footprint
    long long alloc_calls = 0;       ///< bump allocations served
    long long chunk_allocs = 0;      ///< times malloc was actually hit
  };
  [[nodiscard]] Stats stats() const;

  /// Release every chunk (only sensible with no live Frame).
  void reset();

 private:
  friend class Frame;
  void unwind(std::size_t chunk, std::size_t off);
  void coalesce();

  struct Chunk {
    std::unique_ptr<double[]> data;
    std::size_t size = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;  ///< index of the chunk being bumped
  std::size_t off_ = 0;  ///< next free double in chunks_[cur_]
  int depth_ = 0;        ///< live Frame nesting
  Stats stats_;
};

}  // namespace ptlr::hcore
