// E13 -- graceful degradation under injected faults.
//
// Sweeps processor churn intensity (per-proc MTBF) against work-overrun
// severity on a fixed "reasonable" workload and a fixed fault seed, running
// the paper's S scheduler with restart-from-zero recovery.  Expected shape:
// profit erodes monotonically as MTBF falls (more churn) and as the overrun
// factor grows, while the run itself never crashes -- shrink events re-run
// condition-(2) admission and evict just enough jobs to fit the surviving
// machines.  `lost` is the work discarded by restarts (a direct measure of
// the restart-from-zero penalty).
#include <optional>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E13: fault-injection sweep",
               "Claim: profit degrades gracefully (monotone in churn rate "
               "and overrun factor); no run aborts.");

  const ProcCount m = 8;
  const double horizon = 200.0;
  WorkloadConfig workload = scenario_reasonable(0.7, m);
  workload.horizon = horizon;
  Rng rng(42);
  const JobSet jobs = generate_workload(rng, workload);
  const double eps = 0.5;

  TextTable table({"mtbf", "overrun_x", "profit_frac", "completed",
                   "lost_work", "transitions"});
  // mtbf = 0 is the fault-free baseline row.
  for (const double mtbf : {0.0, 200.0, 100.0, 50.0, 25.0}) {
    for (const double factor : {1.0, 1.5, 2.0}) {
      FaultPlanConfig config;
      config.seed = 7;
      config.mtbf = mtbf;
      config.mttr = 5.0;
      config.horizon = horizon;
      config.min_procs = 1;
      config.overrun_prob = factor > 1.0 ? 0.25 : 0.0;
      config.overrun_factor = factor;
      config.restart = RestartPolicy::kRestartFromZero;

      std::optional<FaultInjector> injector;
      const bool any_faults = config.churn_enabled() ||
                              config.overrun_enabled();
      if (any_faults) injector.emplace(build_fault_plan(config, m));

      DeadlineScheduler scheduler(
          DeadlineSchedulerOptions{.params = Params::from_epsilon(eps)});
      RunConfig run;
      run.sim.num_procs = m;
      run.sim.faults = injector ? &*injector : nullptr;
      const RunMetrics metrics = run_workload(jobs, scheduler, run);

      table.add_row(
          {mtbf > 0.0 ? TextTable::num(mtbf) : "inf",
           TextTable::num(factor),
           TextTable::num(metrics.fraction, 3),
           TextTable::num(static_cast<long long>(metrics.completed)) + "/" +
               TextTable::num(static_cast<long long>(metrics.num_jobs)),
           TextTable::num(metrics.lost_work, 4),
           TextTable::num(static_cast<long long>(
               injector ? injector->transitions().size() : 0))});
    }
  }
  csv.emit("e13_fault_sweep", table);
  std::cout << "\nShape check: the mtbf=inf,overrun=1 row matches the "
               "fault-free baseline; profit_frac falls monotonically down "
               "each column and across each row.\n";
  return 0;
}
