// Wrapper parity test for the benchmark's tracing wrappers (tracing.h).
//
// 1. Forwarding: every SchedulerBase / NodeSelector virtual called on a
//    wrapper reaches the wrapped object and returns its answer.
// 2. Parity: on small generated workloads, every named scheduler x both
//    engines x {no faults, churn with resume, churn with restart-from-zero}
//    gives the same SimResult (totals and per-job outcomes) and the same
//    decision-event log wrapped as unwrapped.
//
// Prints one line per failure and exits 1 if any check failed.
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dag/builder.h"
#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "tracing.h"
#include "util/rng.h"
#include "util/wire.h"
#include "workload/scenarios.h"
#include "workload/workload.h"

namespace {

using namespace dagsched;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL " << what << "\n";
  }
}

/// Records which virtual was called last and answers with sentinels.
class ProbeScheduler final : public SchedulerBase {
 public:
  std::string name() const override { return "probe"; }
  bool clairvoyant() const override { return true; }
  void reset() override { last = "reset"; }
  void on_arrival(const EngineContext&, JobId job) override {
    last = "on_arrival:" + std::to_string(job);
  }
  void on_completion(const EngineContext&, JobId job) override {
    last = "on_completion:" + std::to_string(job);
  }
  void on_deadline(const EngineContext&, JobId job) override {
    last = "on_deadline:" + std::to_string(job);
  }
  void on_capacity_change(const EngineContext&, ProcCount old_m,
                          ProcCount new_m) override {
    last = "on_capacity_change:" + std::to_string(old_m) + ":" +
           std::to_string(new_m);
  }
  Time next_wakeup(const EngineContext&) const override { return 42.5; }
  void decide(const EngineContext&, Assignment& out) override {
    last = "decide";
    out.clear();
  }
  std::size_t arrival_precompute_size() const override { return 24; }
  void precompute_arrival(const Job&, JobId id, double,
                          void* out) const override {
    *static_cast<JobId*>(out) = id;
  }
  void save_state(CheckpointWriter& out) const override { out.u32(7); }
  void load_state(CheckpointReader& in) override {
    last = "load_state:" + std::to_string(in.u32());
  }
  std::size_t shed_load(const EngineContext&, std::size_t max_jobs) override {
    return max_jobs + 1;
  }
  std::size_t queue_depth() const override { return 11; }
  std::size_t memory_bytes() const override { return 13; }

  std::string last;
};

class ProbeSelector final : public NodeSelector {
 public:
  std::string name() const override { return "probe-selector"; }
  void select(const Dag&, const UnfoldingState&, std::size_t k,
              std::vector<NodeId>& out) override {
    out.assign(1, static_cast<NodeId>(k));
  }
};

void test_forwarding() {
  ProbeScheduler probe;
  e2ebench::TracingScheduler wrapper(probe);
  const EngineContext ctx;
  expect(wrapper.name() == "probe", "forward name");
  expect(wrapper.clairvoyant(), "forward clairvoyant");
  wrapper.reset();
  expect(probe.last == "reset", "forward reset");
  wrapper.on_arrival(ctx, 3);
  expect(probe.last == "on_arrival:3", "forward on_arrival");
  wrapper.on_completion(ctx, 4);
  expect(probe.last == "on_completion:4", "forward on_completion");
  wrapper.on_deadline(ctx, 5);
  expect(probe.last == "on_deadline:5", "forward on_deadline");
  wrapper.on_capacity_change(ctx, 8, 6);
  expect(probe.last == "on_capacity_change:8:6", "forward on_capacity_change");
  expect(wrapper.next_wakeup(ctx) == 42.5, "forward next_wakeup");
  Assignment assignment;
  wrapper.decide(ctx, assignment);
  expect(probe.last == "decide", "forward decide");
  expect(wrapper.arrival_precompute_size() == 24,
         "forward arrival_precompute_size");
  DagBuilder builder;
  builder.add_node(1.0);
  const auto dag = std::make_shared<const Dag>(std::move(builder).build());
  const Job job(dag, 0.0, ProfitFn::step(1.0, 2.0));
  JobId staged = 0;
  wrapper.precompute_arrival(job, 9, 1.0, &staged);
  expect(staged == 9, "forward precompute_arrival");
  CheckpointWriter writer;
  wrapper.save_state(writer);
  expect(writer.size() == 4, "forward save_state");
  CheckpointReader reader(writer.data(), "test", "scheduler");
  wrapper.load_state(reader);
  expect(probe.last == "load_state:7", "forward load_state");
  expect(wrapper.shed_load(ctx, 2) == 3, "forward shed_load");
  expect(wrapper.queue_depth() == 11, "forward queue_depth");
  expect(wrapper.memory_bytes() == 13, "forward memory_bytes");
  expect(wrapper.decide_stats().calls == 1 &&
             wrapper.arrival_stats().calls == 1 &&
             wrapper.event_stats().calls == 3,
         "wrapper call counts");

  ProbeSelector probe_selector;
  e2ebench::TracingSelector selector(probe_selector);
  expect(selector.name() == "probe-selector", "forward selector name");
  std::vector<NodeId> out;
  selector.select(*dag, UnfoldingState(*dag), 5, out);
  expect(out.size() == 1 && out[0] == 5 && selector.stats().calls == 1,
         "forward select");
}

struct Observed {
  SimResult result;
  std::string events;
};

Observed simulate(const JobSet& jobs, const std::string& scheduler_name,
                  EngineKind engine, const FaultInjector* faults,
                  bool wrapped) {
  auto scheduler = make_named_scheduler(scheduler_name);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  e2ebench::TracingScheduler traced_scheduler(*scheduler);
  e2ebench::TracingSelector traced_selector(*selector);
  EventLog events;
  ObsSink sink;
  sink.events = &events;
  SimOptions options;
  options.num_procs = 8;
  options.obs = &sink;
  options.faults = faults;
  Observed observed;
  observed.result =
      wrapped ? run_simulation(engine, jobs, traced_scheduler,
                               traced_selector, options)
              : run_simulation(engine, jobs, *scheduler, *selector, options);
  std::ostringstream out;
  events.write_jsonl(out);
  observed.events = std::move(out).str();
  return observed;
}

bool same_result(const SimResult& a, const SimResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const JobOutcome& x = a.outcomes[i];
    const JobOutcome& y = b.outcomes[i];
    if (x.completed != y.completed || x.completion_time != y.completion_time ||
        x.profit != y.profit || x.executed != y.executed ||
        x.first_start != y.first_start) {
      return false;
    }
  }
  return a.total_profit == b.total_profit &&
         a.jobs_completed == b.jobs_completed && a.decisions == b.decisions &&
         a.node_preemptions == b.node_preemptions &&
         a.job_preemptions == b.job_preemptions &&
         a.busy_proc_time == b.busy_proc_time && a.end_time == b.end_time &&
         a.lost_work == b.lost_work && a.failure == b.failure;
}

void test_parity() {
  Rng thm2_rng(5);
  WorkloadConfig thm2 = scenario_thm2(0.5, 1.5, 8);
  thm2.horizon = 300.0;
  const JobSet thm2_jobs = generate_workload(thm2_rng, thm2);
  Rng profit_rng(5);
  WorkloadConfig profit = scenario_profit(0.5, 1.5, 8,
                                          ProfitPolicy::Shape::kPlateauLinear);
  profit.horizon = 300.0;
  const JobSet profit_jobs = generate_workload(profit_rng, profit);

  const std::vector<std::pair<std::string, std::string>> fault_modes = {
      {"none", ""},
      {"churn-resume", "mtbf=40,mttr=8,horizon=300,seed=3,min-procs=2"},
      {"churn-zero",
       "mtbf=40,mttr=8,horizon=300,seed=3,min-procs=2,restart=zero"}};
  std::size_t combos = 0;
  for (const std::string& name : named_scheduler_list()) {
    const JobSet& jobs = name == "profit" ? profit_jobs : thm2_jobs;
    for (const EngineKind engine : {EngineKind::kEvent, EngineKind::kSlot}) {
      if (name == "profit" && engine != EngineKind::kSlot) continue;
      for (const auto& [label, spec] : fault_modes) {
        std::optional<FaultInjector> injector;
        if (!spec.empty()) {
          injector.emplace(build_fault_plan(*parse_fault_spec(spec), 8));
        }
        const FaultInjector* faults = injector ? &*injector : nullptr;
        const Observed plain = simulate(jobs, name, engine, faults, false);
        const Observed wrapped = simulate(jobs, name, engine, faults, true);
        const std::string combo =
            name + "/" + engine_kind_name(engine) + "/" + label;
        expect(!plain.result.failed(), combo + " simulation failed");
        expect(plain.result.decisions > 0, combo + " made no decisions");
        expect(same_result(plain.result, wrapped.result),
               combo + " SimResult differs when wrapped");
        expect(plain.events == wrapped.events,
               combo + " event log differs when wrapped");
        ++combos;
      }
    }
  }
  std::cout << "parity: " << combos << " scheduler/engine/fault combos\n";
}

}  // namespace

int main() {
  test_forwarding();
  test_parity();
  std::cout << (failures == 0 ? "wrapper parity: ok\n"
                              : "wrapper parity: FAILED\n");
  return failures == 0 ? 0 : 1;
}
