// Reusable per-thread scratch memory for the kernel layer.
//
// The blocked LA kernels need short-lived workspace (packed B panels,
// per-block GemmTnDouble partial accumulators) on every call; allocating it
// fresh each time dominated profile samples in the rSVD power-iteration loop,
// where the same shapes recur dozens of times. ScratchArena is a grow-only
// bump allocator owned by the calling thread: the first call pays the
// allocation, every later call of the same shape reuses the warm memory.
//
// Usage:
//   ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
//   float* panel = scope.AllocArray<float>(tiles * kKc * kNc);
//
// Scopes nest: a kernel that calls another kernel restores the outer
// allocation watermark on scope exit, so nested users never free each
// other's memory. Chunks are never moved or released (pointers handed out
// stay valid for the scope's lifetime); capacity persists for the thread's
// lifetime.
#ifndef LIGHTNE_PARALLEL_SCRATCH_H_
#define LIGHTNE_PARALLEL_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace lightne {

class ScratchArena {
 public:
  /// The calling thread's arena (thread-local, created on first use).
  static ScratchArena& ForCurrentThread() {
    thread_local ScratchArena arena;
    return arena;
  }

  /// RAII allocation scope: everything allocated through the scope is
  /// reclaimed (capacity retained) when it is destroyed.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena),
          saved_chunk_(arena.current_chunk_),
          saved_used_(arena.current_chunk_ < arena.chunks_.size()
                          ? arena.chunks_[arena.current_chunk_].used
                          : 0) {}
    ~Scope() {
      for (size_t c = saved_chunk_ + 1; c < arena_.chunks_.size(); ++c) {
        arena_.chunks_[c].used = 0;
      }
      if (saved_chunk_ < arena_.chunks_.size()) {
        arena_.chunks_[saved_chunk_].used = saved_used_;
      }
      arena_.current_chunk_ = saved_chunk_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// 64-byte-aligned uninitialized array of n Ts (T trivially
    /// destructible); valid until the scope is destroyed.
    template <typename T>
    T* AllocArray(uint64_t n) {
      static_assert(std::is_trivially_destructible_v<T>);
      return static_cast<T*>(arena_.Allocate(n * sizeof(T)));
    }

   private:
    ScratchArena& arena_;
    size_t saved_chunk_;
    size_t saved_used_;
  };

  /// Total bytes reserved across all chunks (monitoring / tests).
  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

 private:
  ScratchArena() = default;

  static constexpr size_t kAlign = 64;  // cache line / widest SIMD vector
  static constexpr size_t kMinChunkBytes = 1u << 20;

  struct Chunk {
    struct AlignedDelete {
      void operator()(std::byte* p) const {
        ::operator delete[](p, std::align_val_t(kAlign));
      }
    };
    std::unique_ptr<std::byte[], AlignedDelete> data;
    size_t size = 0;
    size_t used = 0;
  };

  // Bump-allocates from the current chunk; opens a new chunk (at least
  // doubling total capacity) when it does not fit. Existing chunks are never
  // reallocated, so previously returned pointers remain stable.
  void* Allocate(size_t bytes) {
    bytes = (bytes + kAlign - 1) / kAlign * kAlign;
    if (bytes == 0) bytes = kAlign;
    while (current_chunk_ < chunks_.size()) {
      Chunk& c = chunks_[current_chunk_];
      if (c.used + bytes <= c.size) {
        void* p = c.data.get() + c.used;
        c.used += bytes;
        return p;
      }
      ++current_chunk_;
      if (current_chunk_ < chunks_.size()) chunks_[current_chunk_].used = 0;
    }
    size_t want = capacity_bytes();
    if (want < kMinChunkBytes) want = kMinChunkBytes;
    if (want < bytes) want = bytes;
    Chunk c;
    c.data.reset(static_cast<std::byte*>(
        ::operator new[](want, std::align_val_t(kAlign))));
    c.size = want;
    c.used = bytes;
    chunks_.push_back(std::move(c));
    current_chunk_ = chunks_.size() - 1;
    return chunks_.back().data.get();
  }

  std::vector<Chunk> chunks_;
  size_t current_chunk_ = 0;
};

}  // namespace lightne

#endif  // LIGHTNE_PARALLEL_SCRATCH_H_
