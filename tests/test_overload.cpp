// Graceful overload degradation: when decide() breaches its wall-clock
// budget, the kernel emits a machine-checkable `overload.breach` event and
// sheds the scheduler's lowest-value admissible work (kDrop events with
// `overload.shed.*` slugs); the first in-budget decision afterwards emits
// `overload.recovered`.  The probe hook replaces the measured latency so
// these tests are deterministic on any machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dag/generators.h"
#include "exp/runner.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/kernel/engine_factory.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

constexpr ProcCount kM = 4;

JobSet overload_jobs() {
  Rng rng(9);
  WorkloadConfig config = scenario_shootout(1.5, kM, 0.3, 1.2);
  config.horizon = 60.0;
  return generate_workload(rng, config);
}

struct OverloadOutcome {
  SimResult result;
  std::vector<DecisionEvent> events;
};

OverloadOutcome run_with_budget(const JobSet& jobs, const std::string& name,
                                EngineKind engine,
                                std::uint64_t decide_budget_ns,
                                std::size_t breach_from,
                                std::size_t breach_until,
                                std::size_t shed_max = 1) {
  auto scheduler = make_named_scheduler(name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  EventLog log;
  ObsSink sink;
  sink.events = &log;
  SimOptions options;
  options.num_procs = kM;
  options.obs = &sink;
  options.decide_budget_ns = decide_budget_ns;
  options.overload_shed_max = shed_max;
  if (decide_budget_ns > 0) {
    // Deterministic latency: decisions in [breach_from, breach_until) take
    // 10x the budget; everything else is instantaneous.
    options.overload_probe = [=](std::size_t decision,
                                 std::uint64_t) -> std::uint64_t {
      if (decision >= breach_from && decision < breach_until) {
        return decide_budget_ns * 10;
      }
      return 0;
    };
  }
  OverloadOutcome outcome;
  outcome.result = run_simulation(engine, jobs, *scheduler, *selector,
                                  options);
  outcome.events = log.events();
  return outcome;
}

class OverloadDegradation
    : public ::testing::TestWithParam<std::tuple<std::string, EngineKind>> {};

bool requires_slot_engine(const std::string& name) {
  // ProfitScheduler's slot-indexed windows only make sense on the
  // discrete-slot engine (it DS_CHECKs integral decision times).
  return name == "profit";
}

TEST_P(OverloadDegradation, BreachShedsAndRecovers) {
  const auto& [name, engine] = GetParam();
  if (requires_slot_engine(name) && engine == EngineKind::kEvent) {
    GTEST_SKIP() << name << " is slot-engine only";
  }
  const JobSet jobs = overload_jobs();

  // Reference run to find a decision range where work is in flight.
  const OverloadOutcome base =
      run_with_budget(jobs, name, engine, 0, 0, 0);
  if (base.result.decisions < 8) GTEST_SKIP() << "too few decisions";

  // Breach a narrow early window so the run has plenty of in-budget
  // decisions left afterwards to recover in.
  const std::size_t from = 2;
  const std::size_t until = 5;
  const OverloadOutcome overloaded =
      run_with_budget(jobs, name, engine, 1000, from, until);

  EXPECT_GT(overloaded.result.overload_breaches, 0u);
  EXPECT_GT(overloaded.result.overload_recoveries, 0u);

  std::size_t breach_events = 0, recover_events = 0, shed_events = 0;
  for (const DecisionEvent& event : overloaded.events) {
    if (event.kind == ObsEventKind::kOverload) {
      if (event.reason == "overload.breach") ++breach_events;
      if (event.reason == "overload.recovered") ++recover_events;
    }
    if (event.kind == ObsEventKind::kDrop &&
        event.reason.rfind("overload.shed.", 0) == 0) {
      ++shed_events;
    }
  }
  EXPECT_EQ(breach_events, overloaded.result.overload_breaches);
  EXPECT_EQ(recover_events, overloaded.result.overload_recoveries);
  EXPECT_EQ(shed_events, overloaded.result.overload_sheds);

  // The run ends in the recovered state, and it still terminates cleanly:
  // shedding is degradation, not deadlock.
  EXPECT_FALSE(overloaded.result.failed());
}

TEST_P(OverloadDegradation, BudgetOffIsByteIdenticalToSeed) {
  const auto& [name, engine] = GetParam();
  if (requires_slot_engine(name) && engine == EngineKind::kEvent) {
    GTEST_SKIP() << name << " is slot-engine only";
  }
  const JobSet jobs = overload_jobs();
  const OverloadOutcome a = run_with_budget(jobs, name, engine, 0, 0, 0);
  const OverloadOutcome b = run_with_budget(jobs, name, engine, 0, 0, 0);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.result.total_profit, b.result.total_profit);
  EXPECT_EQ(a.result.overload_breaches, 0u);
  EXPECT_EQ(a.result.overload_sheds, 0u);
  EXPECT_EQ(a.result.overload_recoveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, OverloadDegradation,
    ::testing::Combine(::testing::ValuesIn(named_scheduler_list()),
                       ::testing::Values(EngineKind::kEvent,
                                         EngineKind::kSlot)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, EngineKind>>&
           param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + (std::get<1>(param_info.param) == EngineKind::kEvent
                         ? "_event"
                         : "_slot");
    });

TEST(OverloadDegradation, SchedulerSpecificShedSlugs) {
  // Each scheduler family degrades through its own policy-shaped door; the
  // slug names which one so an operator can tell *what* was sacrificed.
  const JobSet jobs = overload_jobs();
  struct Expectation {
    const char* scheduler;
    EngineKind engine;
    std::vector<std::string> slugs;
  };
  const std::vector<Expectation> expectations = {
      {"s",
       EngineKind::kEvent,
       {"overload.shed.waiting", "overload.shed.started"}},
      {"profit", EngineKind::kSlot, {"overload.shed.window"}},
      {"edf", EngineKind::kEvent, {"overload.shed.lowest-priority"}},
      {"llf", EngineKind::kEvent, {"overload.shed.lowest-priority"}},
      {"federated", EngineKind::kEvent, {"overload.shed.cluster"}},
      {"equi", EngineKind::kEvent, {"overload.shed.share"}},
  };
  for (const Expectation& expectation : expectations) {
    const OverloadOutcome base = run_with_budget(
        jobs, expectation.scheduler, expectation.engine, 0, 0, 0);
    if (base.result.decisions < 8) continue;
    const OverloadOutcome overloaded = run_with_budget(
        jobs, expectation.scheduler, expectation.engine, 1000, 2, 8);
    for (const DecisionEvent& event : overloaded.events) {
      if (event.kind != ObsEventKind::kDrop ||
          event.reason.rfind("overload.shed.", 0) != 0) {
        continue;
      }
      bool known = false;
      for (const std::string& slug : expectation.slugs) {
        known = known || event.reason == slug;
      }
      EXPECT_TRUE(known) << expectation.scheduler << " shed with '"
                         << event.reason << "'";
    }
  }
}

TEST(OverloadDegradation, EquiShedsOnlyJobsItStillServes) {
  // Two live jobs on two processors.  Job 1 has the lower profit and the
  // larger id, so it is EQUI's natural victim under either weighting -- but
  // its deadline passes at t=5 and decide() stops serving it then.  A breach
  // after that must shed job 0: shedding a job the split already ignores
  // frees no capacity.
  JobSet jobs;
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(100.0)), 0.0, 100.0, 10.0));
  jobs.add(Job::with_deadline(
      std::make_shared<const Dag>(make_single_node(100.0)), 0.0, 5.0, 1.0));
  jobs.finalize();
  constexpr Time kExpiry = 5.0;
  for (const char* name : {"equi", "equi-profit"}) {
    for (const EngineKind engine : {EngineKind::kEvent, EngineKind::kSlot}) {
      SCOPED_TRACE(std::string(name) +
                   (engine == EngineKind::kEvent ? " event" : " slot"));
      auto scheduler = make_named_scheduler(name, 0.5);
      auto selector = make_selector(SelectorKind::kFifo, 1);
      EventLog log;
      ObsSink sink;
      sink.events = &log;
      SimOptions options;
      options.num_procs = 2;
      options.obs = &sink;
      options.decide_budget_ns = 1000;
      // Breach exactly once: at the first decision at or past job 1's
      // deadline (the observer runs before the budget check).
      bool past_expiry = false;
      bool breached = false;
      options.observer = [&](const EngineContext& ctx, const Assignment&) {
        past_expiry = ctx.now() >= kExpiry;
      };
      options.overload_probe = [&](std::size_t,
                                   std::uint64_t) -> std::uint64_t {
        if (!past_expiry || breached) return 0;
        breached = true;
        return options.decide_budget_ns * 10;
      };
      const SimResult result = run_simulation(engine, jobs, *scheduler,
                                              *selector, options);
      ASSERT_FALSE(result.failed()) << result.failure_message;
      EXPECT_EQ(result.overload_breaches, 1u);
      ASSERT_EQ(result.overload_sheds, 1u);
      std::vector<JobId> shed;
      for (const DecisionEvent& event : log.events()) {
        if (event.kind == ObsEventKind::kDrop &&
            event.reason == "overload.shed.share") {
          shed.push_back(event.job);
        }
      }
      EXPECT_EQ(shed, std::vector<JobId>{0});
    }
  }
}

TEST(OverloadDegradation, ShedMaxBoundsPerBreachSheds) {
  const JobSet jobs = overload_jobs();
  const OverloadOutcome one =
      run_with_budget(jobs, "s", EngineKind::kEvent, 1000, 2, 3, 1);
  const OverloadOutcome three =
      run_with_budget(jobs, "s", EngineKind::kEvent, 1000, 2, 3, 3);
  // A single breached decision sheds at most shed_max jobs.
  EXPECT_LE(one.result.overload_sheds, one.result.overload_breaches);
  EXPECT_LE(three.result.overload_sheds,
            3 * three.result.overload_breaches);
}

}  // namespace
}  // namespace dagsched
