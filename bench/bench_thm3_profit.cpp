// E6 -- Theorem 3 / Corollary 3 (general profit functions).
//
// Paper claim: when p_i(t) is flat up to x* >= (1+eps)((W-L)/m + L), the
// Section-5 slot-assigning scheduler is O(1/eps^6)-competitive for general
// profit.  Empirically: on plateau+decay profit functions the profit
// scheduler earns a bounded fraction of the OPT upper bound, and beats both
// the step-function reduction (Section-3 S, which forfeits all post-plateau
// profit) and EDF under load.
#include "bench_util.h"
#include "obs/span_timer.h"

int main(int argc, char** argv) {
  const dagsched::bench::CsvSink csv(argc, argv);
  using namespace dagsched;
  using namespace dagsched::bench;
  print_header("E6: Theorem 3 general profit functions",
               "Claim: the slot-assigning scheduler stays within a constant "
               "of OPT for plateau+decay profits.");

  const double eps = 0.5;
  SpanRegistry spans;  // wall time per scheduler family across all cells
  const SchedulerFactory s5_wc = [] {
    return std::make_unique<ProfitScheduler>(ProfitSchedulerOptions{
        .params = Params::from_epsilon(0.5), .work_conserving = true});
  };
  TextTable table({"shape", "load", "S5_frac", "S5wc_frac", "S5_vs_UB",
                   "S3_frac", "edf_frac"});
  struct ShapeCase {
    ProfitPolicy::Shape shape;
    const char* label;
  };
  for (const ShapeCase sc :
       {ShapeCase{ProfitPolicy::Shape::kPlateauLinear, "plateau+linear"},
        ShapeCase{ProfitPolicy::Shape::kPlateauExp, "plateau+exp"}}) {
    for (const double load : {0.4, 0.8, 1.2}) {
      TrialConfig config;
      config.workload = scenario_profit(eps, load, 8, sc.shape);
      config.workload.horizon = 120.0;
      config.run.sim.num_procs = 8;
      config.run.engine = EngineKind::kSlot;
      config.trials = 3;
      config.base_seed = 31;
      config.with_opt = true;
      const TrialStats s5 = [&] {
        ScopedSpan span(&spans, "trials.s5_with_opt");
        return run_trials(config, paper_profit(eps));
      }();
      config.with_opt = false;
      const TrialStats s5wc = [&] {
        ScopedSpan span(&spans, "trials.s5_wc");
        return run_trials(config, s5_wc);
      }();
      const TrialStats s3 = [&] {
        ScopedSpan span(&spans, "trials.s3");
        return run_trials(config, paper_s(eps));
      }();
      const TrialStats edf = [&] {
        ScopedSpan span(&spans, "trials.edf");
        return run_trials(config, list_policy(ListPolicy::kEdf));
      }();
      table.add_row({sc.label, TextTable::num(load),
                     TextTable::num(s5.fraction.mean(), 3),
                     TextTable::num(s5wc.fraction.mean(), 3),
                     TextTable::num(s5.ratio_ub.mean(), 3),
                     TextTable::num(s3.fraction.mean(), 3),
                     TextTable::num(edf.fraction.mean(), 3)});
    }
  }
  csv.emit("e6_profit", table);
  std::cout << "\nScheduler cost (wall time across all cells; S5 column "
               "includes the OPT upper bound LP):\n";
  for (const auto& [name, stats] : spans.snapshot()) {
    std::cout << "  " << name << ": " << TextTable::num(stats.total_ns / 1e6)
              << " ms over " << stats.count << " cells\n";
  }
  std::cout << "\nShape check: S5_vs_UB bounded across load; S5 >= S3 "
               "(slot scheduler can harvest post-plateau profit).\n";
  return 0;
}
