// E9 -- Ablation: the paper's non-standard density.
//
// The paper defines density v_i = p_i/(x_i n_i) -- profit per processor
// step *S will actually spend* -- instead of the classic p_i/W_i.  The two
// differ most when span dominates (n_i L_i >> W_i): classic density
// overrates chain-heavy jobs that hog dedicated processors.  This ablation
// compares the three definitions on chain-heavy vs parallel-heavy mixes.
#include "bench_util.h"
#include "workload/adversarial.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E9: ablation -- density definition",
               "Claim: p/(x*n) (paper) is the right priority when chains "
               "make x*n >> W; definitions coincide on parallel jobs.");

  const double eps = 0.5;
  using DD = DeadlineSchedulerOptions::DensityDef;
  TextTable table({"family", "load", "p/(xn) [paper]", "p/W [classic]",
                   "p/ideal [squashed]"});
  struct FamilyCase {
    DagFamily family;
    const char* label;
  };
  for (const FamilyCase fc :
       {FamilyCase{DagFamily::kChain, "chain-heavy"},
        FamilyCase{DagFamily::kParallelBlock, "parallel"},
        FamilyCase{DagFamily::kMixed, "mixed"}}) {
    for (const double load : {1.0, 2.5}) {
      TrialConfig config;
      config.workload = scenario_shootout(load, 8, 0.4, 1.2);
      config.workload.family = fc.family;
      config.workload.horizon = 150.0;
      config.run.sim.num_procs = 8;
      config.trials = 5;
      config.base_seed = 8080;
      auto frac = [&config, eps](DD def) {
        return run_trials(config,
                          paper_s_options({.params = Params::from_epsilon(eps),
                                           .density_def = def}))
            .fraction.mean();
      };
      table.add_row({fc.label, TextTable::num(load),
                     TextTable::num(frac(DD::kPaper), 3),
                     TextTable::num(frac(DD::kClassic), 3),
                     TextTable::num(frac(DD::kSquashed), 3)});
    }
  }
  csv.emit("e9_density", table);
  std::cout << "\nShape check: definitions agree on parallel blocks; "
               "paper/squashed hold up on chain-heavy overload.\n";

  // What the paper's density *measures*: two overload streams with
  // identical classic density p/W = 1 and identical offered work rate, one
  // of flat jobs (x n ~ W) and one of cloggers (half-chain jobs, x n >> W,
  // most allocated processors idle during the chain).  The realized profit
  // rate tracks p/(x n), not p/W.
  std::cout << "\nStream efficiency (identical p/W = 1, identical offered "
               "load):\n";
  TextTable streams({"stream", "xn/W", "jobs_done", "profit",
                     "profit/(flat profit)"});
  const ProcCount m = 16;
  const Params params = Params::from_epsilon(0.5);
  auto flat = std::make_shared<const Dag>(make_flat_dag(m));
  auto clog = std::make_shared<const Dag>(make_clogger_dag(m));
  const Time interval = 2.0;  // well above machine drain rate: overload
  double flat_profit = 0.0;
  for (const auto& [dag, label] :
       {std::pair{flat, "flat"}, std::pair{clog, "clogger"}}) {
    const JobSet jobs = make_overload_stream(dag, m, 0.5, 64, 1.0, interval);
    const Time deadline =
        (1.0 + 0.5) *
        ((dag->total_work() - dag->span()) / static_cast<double>(m) +
         dag->span());
    const JobAllocation alloc = compute_deadline_allocation(
        dag->total_work(), dag->span(), deadline, 1.0, params, 1.0);
    RunConfig run;
    run.sim.num_procs = m;
    DeadlineScheduler scheduler({.params = params});
    const RunMetrics metrics = run_workload(jobs, scheduler, run);
    if (flat_profit == 0.0) flat_profit = metrics.profit;
    streams.add_row(
        {label,
         TextTable::num(alloc.x * static_cast<double>(alloc.n) /
                            dag->total_work(),
                        3),
         TextTable::num(static_cast<long long>(metrics.completed)),
         TextTable::num(metrics.profit, 4),
         TextTable::num(metrics.profit / flat_profit, 3)});
  }
  csv.emit("e9_streams", streams);
  std::cout << "\nShape check (streams): the profit ratio ~ inverse of the "
               "xn/W ratio -- p/(x n) is profit per processor-step S "
               "actually spends.\n";
  return 0;
}
