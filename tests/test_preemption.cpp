// Preemption counters in both engines, and the EQUI non-clairvoyant
// baseline.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/equi.h"
#include "baselines/list_scheduler.h"
#include "dag/builder.h"
#include "dag/generators.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/event_engine.h"
#include "sim/kernel/engine_factory.h"
#include "sim/slot_engine.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(Preemption, NoneForUncontestedJob) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 0.0, 10.0,
                              1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.node_preemptions, 0u);
  EXPECT_EQ(result.job_preemptions, 0u);
}

TEST(Preemption, EdfPreemptsForTighterDeadline) {
  // Long job running alone, then a tight job arrives and takes the single
  // processor: exactly one node and one job preemption.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(10.0)), 0.0, 30.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 3.0, 4.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 1u);
  EXPECT_EQ(result.job_preemptions, 1u);
}

TEST(Preemption, CompletionIsNotPreemption) {
  // Two sequential jobs on one processor, run to completion in turn.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 10.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kFcfs, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 0u);
  EXPECT_EQ(result.job_preemptions, 0u);
}

TEST(Preemption, SlotEngineCountsGaps) {
  // EDF on the slot engine with the same two-job preemption scenario.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(10.0)), 0.0, 30.0, 1.0));
  jobs.add(Job::with_deadline(share(make_single_node(2.0)), 3.0, 4.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 1;
  SlotEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  EXPECT_EQ(result.jobs_completed, 2u);
  EXPECT_EQ(result.node_preemptions, 1u);
  EXPECT_EQ(result.job_preemptions, 1u);
}

// Edges of the kernel's counted node preemptions (prev_live - continuing;
// see SimKernel::account_preemptions).

/// Runs `jobs` under EDF with a FIFO selector on `m` processors.
SimResult run_edf(const JobSet& jobs, EngineKind engine, ProcCount m,
                  EventLog* log = nullptr) {
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  ObsSink sink;
  sink.events = log;
  SimOptions options;
  options.num_procs = m;
  options.obs = log != nullptr ? &sink : nullptr;
  return run_simulation(engine, jobs, scheduler, *selector, options);
}

class PreemptionEdges : public ::testing::TestWithParam<EngineKind> {};

TEST_P(PreemptionEdges, FirstIntervalAfterBeginCountsNoContinuingNodes) {
  // Every first interval runs nodes whose stamps begin() reset to 0.  Were
  // the interval epoch to start at 0, they would all look continuing
  // against an empty previous interval (the kernel DS_CHECKs that).  A warm
  // re-run of the same engine resets the stamps again.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(4, 2.0)), 0.0, 10.0,
                              1.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  ListScheduler scheduler({ListPolicy::kEdf, false, true});
  auto selector = make_selector(SelectorKind::kFifo);
  auto run_twice = [](auto& engine) {
    for (int run = 0; run < 2; ++run) {
      const SimResult result = engine.run();
      EXPECT_EQ(result.jobs_completed, 2u) << "run " << run;
      EXPECT_EQ(result.node_preemptions, 0u) << "run " << run;
      EXPECT_EQ(result.job_preemptions, 0u) << "run " << run;
    }
  };
  SimOptions options;
  options.num_procs = 5;
  if (GetParam() == EngineKind::kEvent) {
    EventEngine engine(jobs, scheduler, *selector, options);
    run_twice(engine);
  } else {
    SlotEngine engine(jobs, scheduler, *selector, options);
    run_twice(engine);
  }
}

TEST_P(PreemptionEdges, NodeFinishingAtIntervalEndIsNotPreempted) {
  // Job 0 runs nodes a (work w_a) and b (work 5) on two processors.  At
  // t=2 a tighter job arrives and takes one processor; job 0 keeps one,
  // and the FIFO selector hands it a if a is still ready.
  auto run = [](Work a_work) {
    DagBuilder builder;
    builder.add_node(a_work);
    builder.add_node(5.0);
    JobSet jobs;
    jobs.add(Job::with_deadline(
        std::make_shared<const Dag>(std::move(builder).build()), 0.0, 30.0,
        1.0));
    jobs.add(Job::with_deadline(share(make_single_node(3.0)), 2.0, 6.0, 1.0));
    jobs.finalize();
    return run_edf(jobs, GetParam(), 2);
  };
  // a finishes exactly at the interval end t=2: it completed, so b running
  // on alone is no preemption at all.
  const SimResult exact = run(2.0);
  EXPECT_EQ(exact.jobs_completed, 2u);
  EXPECT_EQ(exact.node_preemptions, 0u);
  EXPECT_EQ(exact.job_preemptions, 0u);
  // a still has work at t=2: a keeps the processor, so b is preempted (one
  // node preemption; the job itself keeps running).
  const SimResult unfinished = run(2.5);
  EXPECT_EQ(unfinished.jobs_completed, 2u);
  EXPECT_EQ(unfinished.node_preemptions, 1u);
  EXPECT_EQ(unfinished.job_preemptions, 0u);
}

TEST_P(PreemptionEdges, JobWhoseNodesAllFinishInOneGroupCompletesOnce) {
  // All three nodes of job 0 finish in the same interval, and so does job
  // 1's single node: each job is marked completed once, at the interval's
  // end, and notified with exactly one kComplete event.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(3, 1.0)), 0.0, 10.0,
                              1.0));
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  EventLog log;
  const SimResult result = run_edf(jobs, GetParam(), 4, &log);
  ASSERT_EQ(result.jobs_completed, 2u);
  for (JobId job = 0; job < 2; ++job) {
    EXPECT_EQ(result.outcomes[job].completion_time, 1.0) << "job " << job;
    std::size_t completions = 0;
    for (const DecisionEvent& event : log.events()) {
      if (event.job == job && event.kind == ObsEventKind::kComplete) {
        ++completions;
      }
    }
    EXPECT_EQ(completions, 1u) << "job " << job;
  }
  EXPECT_EQ(result.node_preemptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, PreemptionEdges,
    ::testing::Values(EngineKind::kEvent, EngineKind::kSlot),
    [](const ::testing::TestParamInfo<EngineKind>& param_info) {
      return std::string(param_info.param == EngineKind::kEvent ? "event"
                                                                : "slot");
    });

TEST(Equi, SplitsProcessorsEvenly) {
  JobSet jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.add(Job::with_deadline(share(make_parallel_block(12, 1.0)), 0.0,
                                50.0, 1.0));
  }
  jobs.finalize();
  EquiScheduler scheduler;
  bool checked = false;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 6;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ASSERT_EQ(assignment.allocs.size(), 3u);
      for (const JobAlloc& alloc : assignment.allocs) {
        EXPECT_EQ(alloc.procs, 2u);  // 6 / 3
      }
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  const SimResult result = engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(result.jobs_completed, 3u);
}

TEST(Equi, LargestRemainderDistributesLeftovers) {
  JobSet jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 0.0,
                                50.0, 1.0));
  }
  jobs.finalize();
  EquiScheduler scheduler;
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 4;  // 4/3: grants 2,1,1
  bool checked = false;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ProcCount total = 0;
      for (const JobAlloc& alloc : assignment.allocs) total += alloc.procs;
      EXPECT_EQ(total, 4u);
      EXPECT_EQ(assignment.allocs.size(), 3u);
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  engine.run();
  EXPECT_TRUE(checked);
}

TEST(Equi, ProfitWeightingBiasesShares) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_parallel_block(20, 1.0)), 0.0, 50.0,
                              9.0));
  jobs.add(Job::with_deadline(share(make_parallel_block(20, 1.0)), 0.0, 50.0,
                              1.0));
  jobs.finalize();
  EquiScheduler scheduler({.weight_by_profit = true});
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 10;
  bool checked = false;
  options.observer = [&checked](const EngineContext& ctx,
                                const Assignment& assignment) {
    if (ctx.now() == 0.0 && !checked) {
      checked = true;
      ASSERT_EQ(assignment.allocs.size(), 2u);
      EXPECT_EQ(assignment.allocs[0].procs, 9u);
      EXPECT_EQ(assignment.allocs[1].procs, 1u);
    }
  };
  EventEngine engine(jobs, scheduler, *selector, options);
  engine.run();
  EXPECT_TRUE(checked);
}

TEST(Equi, NeverPeeksAtDagStructure) {
  // EQUI must run fine as a declared non-clairvoyant scheduler on any
  // workload (any DAG peek would DS_CHECK-abort inside EngineContext).
  Rng rng(8);
  const JobSet jobs = generate_workload(rng, scenario_shootout(1.5, 8, 0.3, 1.0));
  EquiScheduler scheduler;
  EXPECT_FALSE(scheduler.clairvoyant());
  auto selector = make_selector(SelectorKind::kFifo);
  SimOptions options;
  options.num_procs = 8;
  const SimResult result = simulate(jobs, scheduler, *selector, options);
  EXPECT_GE(result.total_profit, 0.0);
}

}  // namespace
}  // namespace dagsched
