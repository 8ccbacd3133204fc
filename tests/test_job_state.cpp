// JobStateTable: the kernel's structure-of-arrays per-job state
// (sim/kernel/job_state.h) -- active-set tombstone compaction bound, arena
// reuse across resets, and the ActiveJobs skipping view.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "dag/generators.h"
#include "job/job.h"
#include "sim/context.h"
#include "sim/kernel/job_state.h"

namespace dagsched {
namespace {

JobSet make_jobs(std::size_t n) {
  auto dag = std::make_shared<const Dag>(make_single_node(1.0));
  JobSet jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.add(Job::with_deadline(dag, 0.0, 100.0, 1.0));
  }
  jobs.finalize();
  return jobs;
}

/// The documented bound: after maybe_compact(), the slot vector is never
/// longer than max(kCompactMinSlots, kCompactSlack x live) -- i.e. the
/// ActiveJobs skipping view degrades at most 2x past the minimum.
void expect_within_bound(const JobStateTable& state) {
  const std::size_t bound =
      std::max(JobStateTable::kCompactMinSlots,
               JobStateTable::kCompactSlack * state.active_live());
  EXPECT_LE(state.active_slots().size(), bound)
      << "live=" << state.active_live();
}

TEST(JobStateTable, CompactionBoundsTombstoneSlack) {
  const std::size_t n = 4096;
  const JobSet jobs = make_jobs(n);
  JobStateTable state;
  state.reset(jobs);

  // Activate everything, then deactivate in batches of varying size; after
  // every batch's maybe_compact() the 2x bound must hold.
  for (JobId id = 0; id < n; ++id) state.activate(id);
  EXPECT_EQ(state.active_live(), n);
  JobId next = 0;
  for (const std::size_t batch : {1u, 7u, 64u, 500u, 1000u, 2000u}) {
    for (std::size_t i = 0; i < batch && next < n; ++i) {
      state.deactivate(next++);
    }
    state.maybe_compact();
    expect_within_bound(state);
  }
  // Drain the rest one at a time -- the worst case for tombstone pile-up.
  while (next < n) {
    state.deactivate(next++);
    state.maybe_compact();
    expect_within_bound(state);
  }
  EXPECT_EQ(state.active_live(), 0u);
}

TEST(JobStateTable, CompactionPreservesArrivalOrderAndPositions) {
  const std::size_t n = 512;
  const JobSet jobs = make_jobs(n);
  JobStateTable state;
  state.reset(jobs);
  for (JobId id = 0; id < n; ++id) state.activate(id);
  // Tombstone every even job, forcing a compaction.
  for (JobId id = 0; id < n; id += 2) state.deactivate(id);
  state.maybe_compact();
  expect_within_bound(state);

  // The skipping view sees exactly the odd jobs, in arrival order.
  std::vector<JobId> seen;
  for (const JobId id : ActiveJobs(&state.active_slots(),
                                   state.active_live())) {
    seen.push_back(id);
  }
  ASSERT_EQ(seen.size(), n / 2);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<JobId>(2 * i + 1));
  }
  // Positions stay consistent: deactivating post-compaction still works.
  state.deactivate(1);
  EXPECT_EQ(state.active_live(), n / 2 - 1);
}

TEST(JobStateTable, ResetReusesArenaCapacity) {
  const std::size_t n = 64;
  auto dag = std::make_shared<const Dag>(make_chain(8, 1.0));
  JobSet jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.add(Job::with_deadline(dag, 0.0, 100.0, 1.0));
  }
  jobs.finalize();

  JobStateTable state;
  state.reset(jobs);
  for (JobId id = 0; id < n; ++id) {
    state.arm_unfolding(id, jobs[id].dag(), {});
    state.build_unfolding(id, {});
  }
  const std::size_t high = state.unfolding_bytes();
  EXPECT_EQ(high, n * BlockPool::class_bytes(UnfoldingState::block_bytes(
                          8, /*scaled=*/false)));

  state.reset(jobs);
  for (JobId id = 0; id < n; ++id) {
    state.arm_unfolding(id, jobs[id].dag(), {});
    state.build_unfolding(id, {});
  }
  // Same working set: the coalesced pool chunk absorbs it with no growth.
  EXPECT_EQ(state.unfolding_bytes(), high);
}

TEST(JobStateTable, RetiredBlocksAreReusedNotCarvedAgain) {
  // Jobs built and retired one after another hold one block at a time:
  // the pool carves a single block and recycles it through its free list.
  const std::size_t n = 32;
  auto dag = std::make_shared<const Dag>(make_chain(5, 1.0));
  JobSet jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.add(Job::with_deadline(dag, 0.0, 100.0, 1.0));
  }
  jobs.finalize();

  JobStateTable state;
  state.reset(jobs);
  for (JobId id = 0; id < n; ++id) {
    state.arm_unfolding(id, jobs[id].dag(), {});
    UnfoldingState& unfolding = state.build_unfolding(id, {});
    ASSERT_TRUE(unfolding.has_block());
    while (!unfolding.complete()) {
      unfolding.advance(unfolding.ready()[0], 1.0);
    }
    state.retire_unfolding(id);
    EXPECT_FALSE(unfolding.has_block());
    EXPECT_TRUE(unfolding.is_done(0));
    EXPECT_EQ(unfolding.total_remaining_work(), 0.0);
  }
  EXPECT_EQ(state.unfolding_bytes(),
            BlockPool::class_bytes(UnfoldingState::block_bytes(5, false)));
}

}  // namespace
}  // namespace dagsched
