// Soak test: a large instance through the full stack, checking global
// invariants scale (no quadratic blowups in queues, no accounting drift).
#include <gtest/gtest.h>

#include "core/deadline_scheduler.h"
#include "exp/runner.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

TEST(Soak, ThousandsOfJobsThroughEventEngine) {
  Rng rng(20260707);
  WorkloadConfig config = scenario_shootout(1.2, 16, 0.3, 1.2);
  config.horizon = 3000.0;  // ~2-3k jobs
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 1500u);

  for (const char* name : {"s", "edf", "hdf"}) {
    auto scheduler = make_named_scheduler(name, 0.5);
    RunConfig run;
    run.sim.num_procs = 16;
    const RunMetrics metrics = run_workload(jobs, *scheduler, run);
    // Accounting sanity at scale.
    EXPECT_GT(metrics.completed, jobs.size() / 10) << name;
    EXPECT_LE(metrics.profit, jobs.total_peak_profit() + 1e-6) << name;
    EXPECT_GT(metrics.profit, 0.0) << name;
    // Busy time cannot exceed machine capacity over the simulated span.
    EXPECT_LE(metrics.busy_proc_time, 16.0 * metrics.end_time + 1e-6)
        << name;
    // Decision count stays near-linear in jobs + nodes (guards against a
    // quadratic regression in the engine or queues).
    EXPECT_LT(metrics.decisions, 80u * jobs.size()) << name;
  }
}

TEST(Soak, SchedulerSQueuesStayBounded) {
  Rng rng(99887766);
  WorkloadConfig config = scenario_thm2(0.5, 2.0, 16);  // heavy overload
  config.horizon = 1000.0;
  const JobSet jobs = generate_workload(rng, config);
  ASSERT_GT(jobs.size(), 500u);
  DeadlineScheduler scheduler({.params = Params::from_epsilon(0.5)});
  RunConfig run;
  run.sim.num_procs = 16;
  const RunMetrics metrics = run_workload(jobs, scheduler, run);
  // Every started job is accounted: started profit bounded by total.
  EXPECT_LE(scheduler.started_profit(), jobs.total_peak_profit() + 1e-6);
  EXPECT_LE(scheduler.started_count(), jobs.size());
  EXPECT_GT(metrics.completed, 0u);
}

}  // namespace
}  // namespace dagsched
