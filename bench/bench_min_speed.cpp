// E17 -- "Speed is as powerful as clairvoyance", measured per policy.
//
// Kalyanasundaram & Pruhs's resource-augmentation program (the paper's
// ref [12]) asks how much extra speed substitutes for knowledge.  Using
// the bisection search (exp/augmentation.h) we measure, per scheduler, the
// minimum speed needed to earn 95% of the peak profit on the same tight-
// deadline instance -- a per-policy "price of its blind spots":
// semi-non-clairvoyant S, deadline-driven EDF, non-clairvoyant EQUI.
#include "baselines/equi.h"
#include "bench_util.h"
#include "exp/augmentation.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E17: minimum speed for 95% profit (tight deadlines)",
               "Bisected per policy; the ordering quantifies what each "
               "kind of knowledge is worth in speed.");

  TextTable table({"seed", "jobs", "s", "edf", "hdf", "equi", "federated"});
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    WorkloadConfig config = scenario_tight(0.55, 8);
    config.horizon = 80.0;
    const JobSet jobs = generate_workload(rng, config);
    if (jobs.empty()) continue;

    auto min_speed_of = [&jobs](const char* name) {
      AugmentationQuery query;
      query.target_fraction = 0.95;
      query.speed_lo = 1.0;
      query.speed_hi = 6.0;
      query.tolerance = 0.02;
      query.run.sim.num_procs = 8;
      const AugmentationResult result = find_min_speed(
          jobs, [name] { return make_named_scheduler(name, 0.5); }, query);
      return result.min_speed;
    };
    table.add_row({TextTable::num(static_cast<long long>(seed)),
                   TextTable::num(static_cast<long long>(jobs.size())),
                   TextTable::num(min_speed_of("s"), 4),
                   TextTable::num(min_speed_of("edf"), 4),
                   TextTable::num(min_speed_of("hdf"), 4),
                   TextTable::num(min_speed_of("equi"), 4),
                   TextTable::num(min_speed_of("federated"), 4)});
  }
  csv.emit("e17_min_speed", table);
  std::cout << "\nShape check: every policy needs >1 speed on tight "
               "deadlines (Theorem 1); S needs ~2ish (Corollary 1); "
               "values above 7 mean 95% was unreachable even at 6x.\n";
  return 0;
}
