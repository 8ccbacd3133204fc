// Bump-arena and pooled-node allocation for the simulation hot path.
//
// Two allocators with one shared goal: after a warmup pass, steady-state
// simulation performs zero calls into the global heap (the contract tested
// by tests/test_zero_alloc.cpp).
//
//  - BumpArena: a chunked bump-pointer arena for flat buffers whose
//    lifetimes end together (per-job unfolding state, scratch batches).
//    Allocation is a pointer increment; reset() recycles the whole arena
//    without returning memory to the heap.  Once the arena has coalesced
//    into a single chunk large enough for the working set, reuse is
//    allocation-free.
//
//  - BlockPool: variable-size blocks recycled through size-class free
//    lists, carved from a BumpArena (per-job unfolding blocks, which live
//    from a job's first allocation to its completion).  reset() rewinds the
//    arena, so a same-shaped rerun carves from one coalesced chunk.
//
//  - NodePool + PoolAllocator<T>: a fixed-size-node pool with an intrusive
//    free list, rebindable as a std::allocator replacement so node-based
//    containers (std::set in DensityOrderedQueue / ListScheduler) recycle
//    their tree nodes instead of hitting operator new per insert.
//
// Neither allocator is thread-safe; each simulation run owns its arenas.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dagsched {

/// Chunked bump-pointer arena.  `allocate` never fails (grows by doubling);
/// `reset` rewinds to empty, coalescing all chunks into one contiguous block
/// sized to the high-water mark so the next pass bump-allocates from a
/// single chunk with no heap traffic.
class BumpArena {
 public:
  BumpArena() = default;

  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;
  BumpArena(BumpArena&&) = default;
  BumpArena& operator=(BumpArena&&) = default;

  /// Allocates `bytes` with alignment `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    DS_CHECK(align != 0 && (align & (align - 1)) == 0);
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (offset + bytes > chunk_size_) {
      grow(bytes + align);
      offset = (used_ + align - 1) & ~(align - 1);
    }
    void* p = chunks_.back().get() + offset;
    used_ = offset + bytes;
    total_used_ = retired_ + used_;
    if (total_used_ > high_water_) high_water_ = total_used_;
    return p;
  }

  /// Typed helper: allocates space for `n` objects of T (no construction).
  template <typename T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds the arena to empty.  If allocation ever spilled into a second
  /// chunk, all chunks are replaced by one block sized to the high-water
  /// mark, so subsequent passes stay within a single chunk.
  void reset() {
    if (chunks_.size() > 1 || chunk_size_ < high_water_) {
      chunks_.clear();
      chunk_size_ = 0;
      grow(high_water_);
    }
    used_ = 0;
    retired_ = 0;
    total_used_ = 0;
  }

  /// Bytes currently handed out (including alignment padding).
  std::size_t used() const { return total_used_; }
  /// Largest `used()` ever observed — the steady-state working set.
  std::size_t high_water() const { return high_water_; }
  /// Bytes owned by the arena's chunks.
  std::size_t capacity() const { return retired_ + chunk_size_; }

 private:
  void grow(std::size_t need) {
    std::size_t next = chunk_size_ == 0 ? kInitialChunk : chunk_size_ * 2;
    while (next < need) next *= 2;
    retired_ += used_;
    // Plain new[]: default-initialization.  make_unique would value-init,
    // memsetting every chunk -- measurably slow at multi-MiB chunk sizes.
    chunks_.emplace_back(new std::byte[next]);
    chunk_size_ = next;
    used_ = 0;
  }

  static constexpr std::size_t kInitialChunk = 4096;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t chunk_size_ = 0;   // bytes in chunks_.back()
  std::size_t used_ = 0;         // bytes used in chunks_.back()
  std::size_t retired_ = 0;      // bytes used in all earlier chunks
  std::size_t total_used_ = 0;
  std::size_t high_water_ = 0;
};

/// Size-class block pool.  acquire(bytes) returns a block of
/// class_bytes(bytes) bytes (8-byte aligned): the head of that class's
/// intrusive free list, or a fresh carve from the arena.  release() pushes a
/// block back onto its class list; the caller passes the same `bytes` it
/// acquired with.  Classes are multiples of 16 up to 128 bytes, then eight
/// per power of two, so a block wastes under an eighth of its bytes.
/// Blocks never return to the arena, so carved_bytes() -- the bytes carved
/// since reset() -- is this pool's high-water mark: the per-class peak of
/// blocks held at once, summed over the classes.
class BlockPool {
 public:
  static std::size_t class_bytes(std::size_t bytes) {
    return class_size(class_index(bytes));
  }

  void* acquire(std::size_t bytes) {
    const std::size_t c = class_index(bytes);
    if (c >= free_.size()) free_.resize(c + 1, nullptr);
    if (void* p = free_[c]; p != nullptr) {
      free_[c] = *static_cast<void**>(p);
      return p;
    }
    return arena_.allocate(class_size(c), kAlign);
  }

  void release(void* p, std::size_t bytes) {
    const std::size_t c = class_index(bytes);
    DS_CHECK(c < free_.size());
    *static_cast<void**>(p) = free_[c];
    free_[c] = p;
  }

  /// Forgets every block (live or free) and rewinds the arena.
  void reset() {
    arena_.reset();
    std::fill(free_.begin(), free_.end(), nullptr);
  }

  std::size_t carved_bytes() const { return arena_.used(); }

 private:
  // Class c <= 8 holds 16c bytes; above 128 bytes, class 9 + 8(k - 8) + j
  // holds (9 + j) * 2^(k-4) bytes for 2^(k-1) < bytes <= 2^k, j in [0, 8).
  static std::size_t class_index(std::size_t bytes) {
    if (bytes <= 128) return (std::max<std::size_t>(bytes, 16) + 15) / 16;
    const auto k = static_cast<std::size_t>(std::bit_width(bytes - 1));
    const std::size_t step = std::size_t{1} << (k - 4);
    return 9 + 8 * (k - 8) + ((bytes + step - 1) / step - 9);
  }
  static std::size_t class_size(std::size_t c) {
    if (c <= 8) return 16 * c;
    const std::size_t k = 8 + (c - 9) / 8;
    return (9 + (c - 9) % 8) << (k - 4);
  }

  static constexpr std::size_t kAlign = 8;

  BumpArena arena_;
  std::vector<void*> free_;  // per class: head of an intrusive list
};

/// Fixed-node-size pool with an intrusive free list.  The node size is
/// pinned by the first allocation; all later allocations must match.  Freed
/// nodes are recycled LIFO; chunks are only returned to the heap on
/// destruction, so a clear()+refill cycle of any container backed by this
/// pool is heap-free once the pool has grown to the working-set size.
class NodePool {
 public:
  NodePool() = default;

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* allocate(std::size_t bytes) {
    if (node_size_ == 0) {
      node_size_ = bytes < sizeof(void*) ? sizeof(void*) : bytes;
    }
    DS_CHECK(bytes <= node_size_);
    if (free_list_ != nullptr) {
      void* p = free_list_;
      free_list_ = *static_cast<void**>(p);
      ++live_;
      return p;
    }
    if (next_ == chunk_end_) grow();
    void* p = next_;
    next_ += node_size_;
    ++live_;
    return p;
  }

  void deallocate(void* p) {
    *static_cast<void**>(p) = free_list_;
    free_list_ = p;
    --live_;
  }

  /// Nodes currently handed out.
  std::size_t live() const { return live_; }
  /// Bytes owned by the pool's chunks (capacity, not live bytes).
  std::size_t capacity_bytes() const { return capacity_nodes_ * node_size_; }

 private:
  void grow() {
    std::size_t count = chunk_nodes_ == 0 ? kInitialNodes : chunk_nodes_ * 2;
    // new[] not make_unique: skip the value-init memset of the whole chunk.
    chunks_.emplace_back(new std::byte[count * node_size_]);
    next_ = chunks_.back().get();
    chunk_end_ = next_ + count * node_size_;
    chunk_nodes_ = count;
    capacity_nodes_ += count;
  }

  static constexpr std::size_t kInitialNodes = 64;

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* next_ = nullptr;
  std::byte* chunk_end_ = nullptr;
  void* free_list_ = nullptr;
  std::size_t node_size_ = 0;
  std::size_t chunk_nodes_ = 0;
  std::size_t capacity_nodes_ = 0;
  std::size_t live_ = 0;
};

/// std::allocator-compatible adaptor over a NodePool.  Single-element
/// allocations (the only kind node-based containers make) come from the
/// pool; bulk allocations (rebound vector use, if any) fall back to the
/// heap.  The pool must outlive every container bound to it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(NodePool* pool) : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    if (n == 1) return static_cast<T*>(pool_->allocate(sizeof(T)));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      pool_->deallocate(p);
    } else {
      ::operator delete(p);
    }
  }

  NodePool* pool() const { return pool_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool_ == b.pool_;
  }
  friend bool operator!=(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool_ != b.pool_;
  }

 private:
  NodePool* pool_;
};

}  // namespace dagsched
