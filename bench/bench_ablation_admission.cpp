// E8 -- Ablation: admission condition (2).
//
// Design question: what does the density-window admission (N(Q, v, cv) <=
// b*m) actually buy?  Two regimes:
//   * Random workloads (table 1): almost nothing -- density-greedy without
//     admission does fine, often better (it never turns work away).  This
//     is an honest negative: the condition is for worst-case guarantees.
//   * The adversarial "preemption trap" (table 2): waves of ever-denser
//     jobs arriving halfway through each other.  Without admission every
//     wave is preempted by the next and misses its deadline (exactly the
//     cascade Lemma 4/5 rule out); with admission alternating waves run to
//     completion protected by the density-window reservation.
#include "bench_util.h"
#include "workload/adversarial.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E8: ablation -- admission condition (2)",
               "Claim: without the density-window admission, overload makes "
               "started jobs cannibalize each other.");

  const double eps = 0.5;
  DeadlineSchedulerOptions with_admission{.params = Params::from_epsilon(eps)};
  DeadlineSchedulerOptions no_admission{.params = Params::from_epsilon(eps),
                                        .enforce_admission = false};
  DeadlineSchedulerOptions admit_on_expiry{
      .params = Params::from_epsilon(eps), .admit_on_deadline = true};
  DeadlineSchedulerOptions work_conserving{
      .params = Params::from_epsilon(eps), .work_conserving = true};
  DeadlineSchedulerOptions recompute{
      .params = Params::from_epsilon(eps), .recompute_on_admission = true};

  TextTable table({"load", "S(paper)", "no-admission", "admit-on-expiry",
                   "work-conserving", "recompute"});
  for (const double load : {0.5, 1.0, 2.0, 4.0}) {
    TrialConfig config;
    config.workload = scenario_shootout(load, 8, 0.4, 1.2);
    config.workload.horizon = 150.0;
    config.run.sim.num_procs = 8;
    config.trials = 5;
    config.base_seed = 555;
    auto frac = [&config](const DeadlineSchedulerOptions& options) {
      return run_trials(config, paper_s_options(options)).fraction.mean();
    };
    table.add_row({TextTable::num(load),
                   TextTable::num(frac(with_admission), 3),
                   TextTable::num(frac(no_admission), 3),
                   TextTable::num(frac(admit_on_expiry), 3),
                   TextTable::num(frac(work_conserving), 3),
                   TextTable::num(frac(recompute), 3)});
  }
  csv.emit("e8_random", table);
  std::cout << "\nShape check (random): no-admission is competitive -- the "
               "condition costs little and buys worst-case safety.\n";

  std::cout << "\nPreemption trap (deterministic adversarial instance):\n";
  TextTable trap_table({"waves", "jobs_done(paper)", "jobs_done(no-adm)",
                        "profit(paper)", "profit(no-adm)", "paper/no-adm"});
  for (const std::size_t waves : {8u, 16u, 32u, 64u}) {
    const JobSet trap = make_preemption_trap(16, eps, waves);
    RunConfig run;
    run.sim.num_procs = 16;
    auto run_one = [&](const DeadlineSchedulerOptions& options) {
      DeadlineScheduler scheduler(options);
      return run_workload(trap, scheduler, run);
    };
    const RunMetrics paper = run_one(with_admission);
    const RunMetrics no_adm = run_one(no_admission);
    trap_table.add_row(
        {TextTable::num(static_cast<long long>(waves)),
         TextTable::num(static_cast<long long>(paper.completed)),
         TextTable::num(static_cast<long long>(no_adm.completed)),
         TextTable::num(paper.profit, 4), TextTable::num(no_adm.profit, 4),
         TextTable::num(paper.profit / no_adm.profit, 3)});
  }
  csv.emit("e8_trap", trap_table);
  std::cout << "\nShape check (trap): paper/no-adm grows linearly with the "
               "number of waves -- no-admission completes O(1) jobs.\n";
  return 0;
}
