// Differential oracle for EQUI's incremental candidate list.
//
// ReferenceEqui below is the original full-scan EQUI decide(): it walks
// ctx.active_jobs() every decision, skipping expired and not-ready jobs.
// The production EquiScheduler keeps an arrival-ordered candidate list
// instead (baselines/equi.h); the list must be a pure speedup, so on random
// overloaded instances -- load >= 1.5, where many jobs expire and stay in
// the kernel's active set -- both must produce the same SimResult (per-job
// outcomes included) and byte-identical event logs, for both weightings x
// both engines x {no faults, churn-resume, churn-zero}.  A mid-run
// checkpoint/resume case exercises the list's rebuild-after-restore path.
//
// The reference omits the overload shed set: the overload budget is off on
// this path (shedding semantics are pinned in test_overload.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/equi.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

class ReferenceEqui final : public SchedulerBase {
 public:
  explicit ReferenceEqui(EquiOptions options) : options_(options) {}

  std::string name() const override { return "equi-reference"; }

  void decide(const EngineContext& ctx, Assignment& out) override {
    std::vector<std::pair<JobId, double>> shares;
    double total_weight = 0.0;
    for (const JobId job : ctx.active_jobs()) {
      const JobView view = ctx.view(job);
      if (options_.drop_expired && view.deadline_unreachable(ctx.now())) {
        continue;
      }
      if (view.ready_count() == 0) continue;
      const double weight =
          options_.weight_by_profit ? view.peak_profit() : 1.0;
      DS_CHECK(weight > 0.0);
      shares.emplace_back(job, weight);
      total_weight += weight;
    }
    if (shares.empty()) return;

    const double m = static_cast<double>(ctx.num_procs());
    std::vector<double> fractional(shares.size());
    ProcCount assigned = 0;
    std::vector<ProcCount> grant(shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) {
      const double exact = m * shares[i].second / total_weight;
      grant[i] = static_cast<ProcCount>(std::floor(exact));
      fractional[i] = exact - std::floor(exact);
      assigned += grant[i];
    }
    std::vector<std::size_t> order(shares.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (fractional[a] != fractional[b]) return fractional[a] > fractional[b];
      return shares[a].first < shares[b].first;
    });
    for (std::size_t rank = 0;
         rank < order.size() && assigned < ctx.num_procs(); ++rank) {
      ++grant[order[rank]];
      ++assigned;
    }

    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (grant[i] >= 1) out.add(shares[i].first, grant[i]);
    }
  }

 private:
  EquiOptions options_;
};

EquiOptions options_for(const std::string& name) {
  return EquiOptions{name == "equi-profit", true};
}

/// A small overloaded instance: one of three scenario families at a load
/// in [1.5, 3], on 3..8 processors.
struct Instance {
  JobSet jobs;
  ProcCount m = 4;
  std::uint64_t fault_seed = 1;
};

Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  Instance instance;
  instance.m = static_cast<ProcCount>(rng.uniform_int(3, 8));
  instance.fault_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  const double load = rng.uniform(1.5, 3.0);
  WorkloadConfig config;
  switch (seed % 3) {
    case 0: config = scenario_shootout(load, instance.m, 0.2, 1.5); break;
    case 1: config = scenario_thm2(0.5, load, instance.m); break;
    default: config = scenario_tight(load, instance.m); break;
  }
  config.horizon = 80.0;
  instance.jobs = generate_workload(rng, config);
  return instance;
}

std::optional<FaultInjector> make_faults(const std::string& mode,
                                         const Instance& instance) {
  std::optional<FaultInjector> injector;
  if (mode == "none") return injector;
  const std::string spec =
      "mtbf=15,mttr=4,horizon=100,integral=1,min-procs=1,seed=" +
      std::to_string(instance.fault_seed) + ",restart=" +
      (mode == "churn-zero" ? "zero" : "resume");
  std::string error;
  const auto config = parse_fault_spec(spec, &error);
  EXPECT_TRUE(config.has_value()) << error;
  injector.emplace(build_fault_plan(*config, instance.m));
  return injector;
}

struct RunOutput {
  SimResult result;
  EventLog log;
};

void run(const Instance& instance, SchedulerBase& scheduler,
         EngineKind engine, const std::string& fault_mode, RunOutput& out,
         CheckpointSink* checkpoint = nullptr,
         const CheckpointFile* resume = nullptr) {
  auto selector = make_selector(SelectorKind::kFifo, 1);
  std::optional<FaultInjector> faults = make_faults(fault_mode, instance);
  ObsSink sink;
  sink.events = &out.log;
  SimOptions options;
  options.num_procs = instance.m;
  options.obs = &sink;
  options.faults = faults ? &*faults : nullptr;
  options.checkpoint = checkpoint;
  options.resume = resume;
  out.result =
      run_simulation(engine, instance.jobs, scheduler, *selector, options);
}

std::string jsonl(const EventLog& log) {
  std::ostringstream out;
  log.write_jsonl(out);
  return out.str();
}

void expect_same_result(const SimResult& want, const SimResult& got) {
  EXPECT_EQ(got.failure, want.failure) << got.failure_message;
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.jobs_completed, want.jobs_completed);
  EXPECT_EQ(got.total_profit, want.total_profit);  // bitwise, not NEAR
  EXPECT_EQ(got.busy_proc_time, want.busy_proc_time);
  EXPECT_EQ(got.end_time, want.end_time);
  EXPECT_EQ(got.lost_work, want.lost_work);
  EXPECT_EQ(got.node_preemptions, want.node_preemptions);
  EXPECT_EQ(got.job_preemptions, want.job_preemptions);
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    const JobOutcome& a = want.outcomes[i];
    const JobOutcome& b = got.outcomes[i];
    EXPECT_EQ(b.completed, a.completed) << "job " << i;
    EXPECT_EQ(b.completion_time, a.completion_time) << "job " << i;
    EXPECT_EQ(b.profit, a.profit) << "job " << i;
    EXPECT_EQ(b.executed, a.executed) << "job " << i;
    EXPECT_EQ(b.first_start, a.first_start) << "job " << i;
  }
}

using Combo = std::tuple<std::string, EngineKind, std::string>;

class EquiReference : public ::testing::TestWithParam<Combo> {};

TEST_P(EquiReference, MatchesFullScanOnRandomOverloadedInstances) {
  const auto& [name, engine, fault_mode] = GetParam();
  constexpr std::uint64_t kInstances = 24;
  std::size_t expired_somewhere = 0;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    const Instance instance = random_instance(seed);
    ReferenceEqui reference(options_for(name));
    RunOutput want;
    run(instance, reference, engine, fault_mode, want);
    auto scheduler = make_named_scheduler(name, 0.5);
    RunOutput got;
    run(instance, *scheduler, engine, fault_mode, got);

    ASSERT_FALSE(want.result.failed()) << want.result.failure_message;
    expect_same_result(want.result, got.result);
    EXPECT_EQ(jsonl(got.log), jsonl(want.log));
    if (want.result.jobs_completed < instance.jobs.size()) {
      ++expired_somewhere;
    }
  }
  // The instances are overloaded: most leave expired jobs behind, which is
  // the state the candidate list prunes.
  EXPECT_GT(expired_somewhere, kInstances / 2);
}

TEST_P(EquiReference, ResumedRunMatchesFullScanSuffix) {
  const auto& [name, engine, fault_mode] = GetParam();
  const Instance instance = random_instance(101);
  ReferenceEqui reference(options_for(name));
  RunOutput want;
  run(instance, reference, engine, fault_mode, want);
  ASSERT_GE(want.result.decisions, 8u);

  // Snapshot every quarter of the run, keeping the last two; the final
  // on-disk snapshot lands mid-run, after many jobs have already expired.
  std::string tag = name + (engine == EngineKind::kEvent ? "_ev_" : "_sl_") +
                    fault_mode;
  std::replace(tag.begin(), tag.end(), '-', '_');
  const std::string path =
      ::testing::TempDir() + "equi_reference_" + tag + ".ckpt";
  const auto interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(want.result.decisions) / 4);
  // One scheduler instance serves both runs, so the resume also checks
  // that reset() discards the candidate list the first run left behind.
  auto scheduler = make_named_scheduler(name, 0.5);
  RunOutput checkpointed;
  CheckpointMeta meta;
  meta.scheduler = name;
  CheckpointSink sink(path, interval, meta, &checkpointed.log);
  sink.set_snapshot_limit(2);
  run(instance, *scheduler, engine, fault_mode, checkpointed, &sink);
  ASSERT_GT(sink.snapshots(), 0u);
  EXPECT_EQ(checkpointed.log.events(), want.log.events());

  const CheckpointFile file = read_checkpoint_file(path);
  ASSERT_GT(file.meta.events_emitted, 0u);
  ASSERT_LE(file.meta.events_emitted, want.log.size());
  RunOutput resumed;
  run(instance, *scheduler, engine, fault_mode, resumed, nullptr, &file);

  const std::vector<DecisionEvent> suffix(
      want.log.events().begin() +
          static_cast<std::ptrdiff_t>(file.meta.events_emitted),
      want.log.events().end());
  EXPECT_EQ(resumed.log.events(), suffix);
  expect_same_result(want.result, resumed.result);
}

INSTANTIATE_TEST_SUITE_P(
    EquiVariants, EquiReference,
    ::testing::Combine(::testing::Values("equi", "equi-profit"),
                       ::testing::Values(EngineKind::kEvent,
                                         EngineKind::kSlot),
                       ::testing::Values("none", "churn-resume",
                                         "churn-zero")),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      std::string name = std::get<0>(param_info.param) +
                         (std::get<1>(param_info.param) == EngineKind::kEvent
                              ? "_event_"
                              : "_slot_") +
                         std::get<2>(param_info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace dagsched
