// Per-thread bump arena backing the level-batched forward and backward.
//
// TreeModel::Infer and the batched estimator preparation allocate every
// intermediate ([N x d] activations, gather buffers, index scratch) from this
// arena instead of constructing Matrix temporaries. A query does:
//
//   InferArena& arena = InferArena::ThreadLocal();
//   arena.Reset();                 // reclaims everything from the last query
//   float* buf = arena.Alloc(n);   // bump pointer, 64-byte aligned
//
// Blocks are never reused within a pass, so every pointer handed out stays
// valid until the next Reset. When a pass outgrows the current capacity the
// arena appends a block (a real heap allocation, counted); the next Reset
// coalesces all blocks into one sized for the high-water mark. At steady
// state a query therefore performs zero heap allocations — pinned by
// tests/infer_fastpath_test.cc via heap_allocations().
#ifndef LPCE_NN_ARENA_H_
#define LPCE_NN_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace lpce::nn {

class InferArena {
 public:
  InferArena() = default;
  InferArena(const InferArena&) = delete;
  InferArena& operator=(const InferArena&) = delete;

  /// Returns a 64-byte-aligned buffer of n floats, valid until Reset().
  /// Never invalidates previously returned pointers.
  float* Alloc(size_t n);

  /// Zero-filled variant of Alloc.
  float* AllocZeroed(size_t n);

  /// Reclaims all allocations. If the previous pass spilled into extra
  /// blocks, coalesces into a single block covering the high-water mark so
  /// the next pass runs allocation-free.
  void Reset();

  /// Number of heap block allocations ever performed (monotone). Flat across
  /// queries after warmup == the zero-allocation contract holds.
  size_t heap_allocations() const { return heap_allocations_; }

  /// Total floats of capacity across blocks.
  size_t capacity() const;

  /// Floats handed out since the last Reset.
  size_t used() const;

  /// The calling thread's arena (one per thread, lazily created).
  static InferArena& ThreadLocal();

 private:
  struct Block {
    std::unique_ptr<float[]> data;
    float* base = nullptr;  // data.get() rounded up to 64-byte alignment
    size_t size = 0;        // usable floats starting at base
    size_t used = 0;        // floats
  };

  Block MakeBlock(size_t min_floats);

  std::vector<Block> blocks_;
  size_t active_ = 0;  // index of the block currently bump-allocating
  size_t heap_allocations_ = 0;
};

}  // namespace lpce::nn

#endif  // LPCE_NN_ARENA_H_
