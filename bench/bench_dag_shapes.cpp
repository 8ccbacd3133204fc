// E18 -- DAG-shape sensitivity.
//
// The paper's guarantee is shape-agnostic (only W and L enter the
// algorithm), but real performance depends on how a DAG unfolds: S parks
// n_i processors on a job even while a narrow phase (chain, wavefront
// ramp-up, reduce stage) exposes few ready nodes.  This experiment fixes
// the load and sweeps classic HPC task-graph shapes, reporting the profit
// fraction of S vs the work-conserving baselines and S's internal waste
// (busy time / reserved processor-steps).
#include "bench_util.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E18: DAG-shape sensitivity at fixed load",
               "How a shape's unfolding (narrow phases vs flat width) "
               "affects S relative to work-conserving policies.");

  struct ShapeCase {
    DagFamily family;
    const char* label;
  };
  const ShapeCase shapes[] = {
      {DagFamily::kParallelBlock, "parallel-block"},
      {DagFamily::kForkJoin, "fork-join"},
      {DagFamily::kWavefront, "wavefront"},
      {DagFamily::kStencil, "stencil-1d"},
      {DagFamily::kMapReduce, "map-reduce"},
      {DagFamily::kChain, "chain"},
  };

  const double eps = 0.5;
  TextTable table({"shape", "avg W/L", "S_frac", "edf_frac", "hdf_frac",
                   "S_busy/reserved"});
  for (const ShapeCase shape : shapes) {
    RunningStats s_frac, edf_frac, hdf_frac, parallelism, waste;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      Rng rng(3100 + seed);
      WorkloadConfig config = scenario_thm2(eps, 1.3, 8);
      config.family = shape.family;
      config.horizon = 150.0;
      const JobSet jobs = generate_workload(rng, config);
      if (jobs.empty()) continue;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        parallelism.add(jobs[i].work() / jobs[i].span());
      }

      RunConfig run;
      run.sim.num_procs = 8;
      {
        DeadlineScheduler s({.params = Params::from_epsilon(eps)});
        const RunMetrics metrics = run_workload(jobs, s, run);
        s_frac.add(metrics.fraction);
        // Reserved processor-steps: sum x_i n_i over started jobs (the
        // paper's set R) -- the capacity S was willing to commit.
        double reserved = 0.0;
        for (JobId j = 0; j < jobs.size(); ++j) {
          if (!s.was_started(j)) continue;
          const JobAllocation* alloc = s.allocation_of(j);
          if (alloc != nullptr && alloc->n > 0) {
            reserved += alloc->x * static_cast<double>(alloc->n);
          }
        }
        if (reserved > 0.0) waste.add(metrics.busy_proc_time / reserved);
      }
      {
        auto edf = make_named_scheduler("edf");
        edf_frac.add(run_workload(jobs, *edf, run).fraction);
      }
      {
        auto hdf = make_named_scheduler("hdf");
        hdf_frac.add(run_workload(jobs, *hdf, run).fraction);
      }
    }
    table.add_row({shape.label, TextTable::num(parallelism.mean(), 3),
                   TextTable::num(s_frac.mean(), 3),
                   TextTable::num(edf_frac.mean(), 3),
                   TextTable::num(hdf_frac.mean(), 3),
                   TextTable::num(waste.mean(), 3)});
  }
  csv.emit("e18_shapes", table);
  std::cout << "\nShape check: S tracks the baselines on flat shapes "
               "(block) and loses ground where unfolding is narrow "
               "(chain/wavefront ramps) -- exactly the x_i*n_i >= W slack "
               "Lemma 3 bounds by a.\n";
  return 0;
}
