// Lazy, pooled unfolding blocks (sim/kernel/job_state.h): the kernel holds a
// job's per-node state only from its first allocation to its completion,
// carving blocks from size-class free lists.  These tests pin the memory
// that buys and that block reuse never leaks into a checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/list_scheduler.h"
#include "core/deadline_scheduler.h"
#include "obs/telemetry/telemetry.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/event_engine.h"
#include "util/arena.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

JobSet thm2_jobs(double load, double horizon) {
  Rng rng(42);
  WorkloadConfig config = scenario_thm2(0.5, load, 16);
  config.horizon = horizon;
  return generate_workload(rng, config);
}

std::size_t block_class_bytes(const Job& job) {
  return BlockPool::class_bytes(
      UnfoldingState::block_bytes(job.dag().num_nodes(), /*scaled=*/false));
}

TEST(LazyUnfolding, LiveBlockBytesStayFarBelowTheArrivalSum) {
  // Paper S at 4x overload admits a minority of the arrivals.  A block is
  // built at a job's first allocation and returned at its completion, so
  // the pool carves, per size class, only the most blocks of that class
  // held at once: the unfolding_bytes gauge must equal that sum exactly,
  // and sit far below one block per arrival (the eager footprint).
  const JobSet jobs = thm2_jobs(4.0, 1500.0);
  ASSERT_GE(jobs.size(), 2000u);

  std::vector<char> built(jobs.size(), 0);
  std::vector<JobId> live;
  std::map<std::size_t, std::size_t> live_per_class, peak_per_class;
  std::size_t most_built = 0;
  SimOptions options;
  options.num_procs = 16;
  options.observer = [&](const EngineContext& ctx,
                         const Assignment& assignment) {
    // Completed jobs have returned their blocks; this decision's allocs
    // build theirs right after the observer.
    std::size_t kept = 0;
    for (const JobId job : live) {
      if (ctx.view(job).completed()) {
        --live_per_class[block_class_bytes(jobs[job])];
      } else {
        live[kept++] = job;
      }
    }
    live.resize(kept);
    for (const JobAlloc& alloc : assignment.allocs) {
      if (built[alloc.job] != 0) continue;
      built[alloc.job] = 1;
      live.push_back(alloc.job);
      const std::size_t c = block_class_bytes(jobs[alloc.job]);
      peak_per_class[c] = std::max(peak_per_class[c], ++live_per_class[c]);
    }
    most_built = std::max(most_built, live.size());
  };
  TelemetryOptions telemetry_options;
  telemetry_options.include_rss = false;
  TelemetryRecorder telemetry(telemetry_options);
  options.telemetry = &telemetry;

  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  auto selector = make_selector(SelectorKind::kFifo);
  EventEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  ASSERT_FALSE(result.failed()) << result.failure_message;
  ASSERT_TRUE(telemetry.has_sample());

  std::size_t carved = 0;
  for (const auto& [bytes, peak] : peak_per_class) carved += bytes * peak;
  std::size_t eager = 0;
  for (const Job& job : jobs.jobs()) eager += block_class_bytes(job);
  const std::size_t gauge = telemetry.last_sample().unfolding_bytes;
  EXPECT_EQ(gauge, carved);
  EXPECT_LT(most_built * 20, jobs.size()) << most_built;
  EXPECT_LT(gauge * 20, eager) << gauge << " of " << eager;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(LazyUnfolding, RerunOverARecycledPoolWritesIdenticalCheckpoints) {
  // Three runs of one engine: the first carves fresh blocks, the later ones
  // recycle blocks that still hold the previous run's bytes.  A checkpoint
  // taken at the same mid-run decision must not depend on which: unused
  // ready-list entries are written as zeros.
  const JobSet jobs = thm2_jobs(1.5, 300.0);
  const std::string path =
      ::testing::TempDir() + "lazy_unfolding_rerun.ckpt";
  std::optional<CheckpointSink> sink;
  SimOptions options;
  options.num_procs = 16;
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  // The sink lives at one address across runs; each run gets a fresh one.
  sink.emplace(path, 1, CheckpointMeta{}, nullptr);
  options.checkpoint = &*sink;
  EventEngine engine(jobs, scheduler, *selector, options);

  std::vector<std::string> snapshots;
  for (int run = 0; run < 3; ++run) {
    sink.emplace(path, 200, CheckpointMeta{}, nullptr);
    sink->set_snapshot_limit(3);
    const SimResult result = engine.run();
    ASSERT_FALSE(result.failed()) << result.failure_message;
    ASSERT_EQ(sink->snapshots(), 3u);
    snapshots.push_back(slurp(path));
  }
  std::remove(path.c_str());
  ASSERT_FALSE(snapshots[0].empty());
  EXPECT_TRUE(snapshots[1] == snapshots[0]);
  EXPECT_TRUE(snapshots[2] == snapshots[0]);
}

}  // namespace
}  // namespace dagsched
