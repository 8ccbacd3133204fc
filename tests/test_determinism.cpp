// Determinism regression: for every registered scheduler, the same seed and
// configuration must produce bit-identical results across runs -- the
// property every experiment in EXPERIMENTS.md relies on.
#include <gtest/gtest.h>

#include "exp/runner.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, IdenticalRunsProduceIdenticalResults) {
  const std::string name = GetParam();
  Rng rng1(12345), rng2(12345);
  WorkloadConfig config =
      name == "profit"
          ? scenario_profit(0.5, 0.8, 8, ProfitPolicy::Shape::kPlateauLinear)
          : scenario_shootout(1.2, 8, 0.3, 1.2);
  config.horizon = 80.0;
  const JobSet jobs1 = generate_workload(rng1, config);
  const JobSet jobs2 = generate_workload(rng2, config);

  RunConfig run;
  run.sim.num_procs = 8;
  run.engine = (name == "profit") ? EngineKind::kSlot : EngineKind::kEvent;
  auto s1 = make_named_scheduler(name, 0.5);
  auto s2 = make_named_scheduler(name, 0.5);
  const RunMetrics a = run_workload(jobs1, *s1, run);
  const RunMetrics b = run_workload(jobs2, *s2, run);
  EXPECT_EQ(a.profit, b.profit);  // bitwise, not NEAR
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.busy_proc_time, b.busy_proc_time);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, Determinism,
    ::testing::ValuesIn(named_scheduler_list()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
      std::string name = param_info.param;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Determinism, RandomSelectorIsSeedStable) {
  Rng rng(5);
  WorkloadConfig config = scenario_shootout(1.0, 8, 0.3, 1.0);
  config.horizon = 60.0;
  const JobSet jobs = generate_workload(rng, config);
  RunConfig run;
  run.sim.num_procs = 8;
  run.selector = SelectorKind::kRandom;
  run.selector_seed = 99;
  auto s1 = make_named_scheduler("edf");
  auto s2 = make_named_scheduler("edf");
  EXPECT_EQ(run_workload(jobs, *s1, run).profit,
            run_workload(jobs, *s2, run).profit);
}

TEST(Determinism, NamedSchedulerRegistryComplete) {
  for (const std::string& name : named_scheduler_list()) {
    EXPECT_NE(make_named_scheduler(name), nullptr) << name;
  }
  EXPECT_THROW(make_named_scheduler("definitely-not-a-scheduler"),
               std::invalid_argument);
}

}  // namespace
}  // namespace dagsched
