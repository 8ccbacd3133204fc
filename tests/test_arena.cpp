// BumpArena / NodePool / PoolAllocator / DaryHeap: the allocators and heap
// behind the zero-steady-state-allocation contract (util/arena.h,
// util/dary_heap.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/dary_heap.h"
#include "util/rng.h"
#include "util/types.h"

namespace dagsched {
namespace {

TEST(BumpArena, AlignmentAndDisjointness) {
  BumpArena arena;
  auto* a = static_cast<char*>(arena.allocate(3, 1));
  auto* b = arena.allocate_array<double>(4);
  auto* c = arena.allocate_array<std::uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % alignof(std::uint32_t), 0u);
  // Write through every pointer; distinct regions must not clobber.
  a[0] = 'x';
  for (int i = 0; i < 4; ++i) b[i] = 1.5 * i;
  for (std::uint32_t i = 0; i < 5; ++i) c[i] = 100u + i;
  EXPECT_EQ(a[0], 'x');
  EXPECT_DOUBLE_EQ(b[3], 4.5);
  EXPECT_EQ(c[4], 104u);
  EXPECT_GE(arena.used(), 3 + 4 * sizeof(double) + 5 * sizeof(std::uint32_t));
  EXPECT_EQ(arena.high_water(), arena.used());
}

TEST(BumpArena, GrowsAcrossChunksAndCoalescesOnReset) {
  BumpArena arena;
  // Force multiple chunk spills (initial chunk is 4 KiB).
  for (int i = 0; i < 64; ++i) arena.allocate_array<double>(128);  // 64 KiB
  const std::size_t high = arena.high_water();
  EXPECT_GE(high, 64u * 128u * sizeof(double));

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.high_water(), high);
  EXPECT_GE(arena.capacity(), high);
  // The same working set now fits in the coalesced chunk: capacity must not
  // change while re-allocating it.
  const std::size_t capacity = arena.capacity();
  for (int i = 0; i < 64; ++i) arena.allocate_array<double>(128);
  EXPECT_EQ(arena.capacity(), capacity);
}

TEST(NodePool, RecyclesFreedNodesLifo) {
  NodePool pool;
  void* a = pool.allocate(48);
  void* b = pool.allocate(48);
  EXPECT_EQ(pool.live(), 2u);
  pool.deallocate(a);
  pool.deallocate(b);
  EXPECT_EQ(pool.live(), 0u);
  // LIFO: the most recently freed node comes back first.
  EXPECT_EQ(pool.allocate(48), b);
  EXPECT_EQ(pool.allocate(48), a);
  const std::size_t capacity = pool.capacity_bytes();
  // A full free/realloc cycle within capacity must not grow the pool.
  pool.deallocate(a);
  pool.deallocate(b);
  pool.allocate(48);
  pool.allocate(48);
  EXPECT_EQ(pool.capacity_bytes(), capacity);
}

TEST(PoolAllocator, BacksAStdSetThroughClearRefillCycles) {
  NodePool pool;
  std::set<std::pair<double, JobId>, std::less<>,
           PoolAllocator<std::pair<double, JobId>>>
      set{std::less<>{}, PoolAllocator<std::pair<double, JobId>>(&pool)};
  for (JobId j = 0; j < 200; ++j) set.emplace(200.0 - j, j);
  EXPECT_EQ(set.size(), 200u);
  EXPECT_EQ(pool.live(), 200u);
  EXPECT_DOUBLE_EQ(set.begin()->first, 1.0);
  const std::size_t capacity = pool.capacity_bytes();
  set.clear();
  EXPECT_EQ(pool.live(), 0u);
  for (JobId j = 0; j < 200; ++j) set.emplace(static_cast<double>(j), j);
  EXPECT_EQ(pool.capacity_bytes(), capacity);  // fully recycled, no growth
}

TEST(DaryHeap, PopsInSortedOrderLikeAMinPriorityQueue) {
  using Entry = std::pair<Time, JobId>;
  DaryHeap<Entry> heap;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> ref;
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const Entry e{rng.uniform(0.0, 100.0), static_cast<JobId>(i % 37)};
    heap.push(e);
    ref.push(e);
  }
  ASSERT_EQ(heap.size(), ref.size());
  while (!ref.empty()) {
    EXPECT_EQ(heap.top(), ref.top());
    heap.pop();
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DaryHeap, InterleavedPushPopMatchesReference) {
  DaryHeap<Time> heap;
  std::priority_queue<Time, std::vector<Time>, std::greater<>> ref;
  Rng rng(7);
  for (int round = 0; round < 3000; ++round) {
    if (ref.empty() || rng.uniform(0.0, 1.0) < 0.6) {
      const Time t = rng.uniform(0.0, 50.0);
      heap.push(t);
      ref.push(t);
    } else {
      EXPECT_DOUBLE_EQ(heap.top(), ref.top());
      heap.pop();
      ref.pop();
    }
  }
}

TEST(DaryHeap, ClearRetainsCapacity) {
  DaryHeap<std::pair<Time, JobId>> heap;
  for (JobId j = 0; j < 500; ++j) heap.push({static_cast<Time>(j), j});
  const std::size_t bytes = heap.memory_bytes();
  EXPECT_GE(bytes, 500u * sizeof(std::pair<Time, JobId>));
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.memory_bytes(), bytes);
}

}  // namespace
}  // namespace dagsched
