// Differential oracle for the kernel's preemption accounting.
//
// The kernel counts node preemptions without looking at the previous
// interval again: prev_live - continuing, from epoch stamps set while it
// builds each interval (SimKernel::account_preemptions).  The reference
// below recomputes both counts with the direct set-difference rule -- a
// node (job) that ran in the previous interval, is unfinished, and does not
// run now was preempted -- from each interval's selected nodes, recorded by
// a forwarding NodeSelector and split into intervals by the decision
// observer.  It also rebuilds busy processor-time and per-job executed work
// from the recorded remaining works, and the kPreempt events (ascending job
// id per decision).
//
// On a few hundred random small instances x both engines x the five
// selectors x {no faults, churn-resume, churn-zero}, the recorded run must
// match the reference and be identical (SimResult incl. per-job outcomes,
// byte-identical JSONL) to an unwrapped run.  A mid-run checkpoint/resume
// case covers the restored previous interval, and a wide case (m=128)
// covers intervals with many nodes per job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/engine_factory.h"
#include "util/rng.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

using NodeKey = std::pair<JobId, NodeId>;

/// One decision interval as the reference sees it.
struct Interval {
  Time now = 0.0;
  std::vector<JobId> jobs;  // jobs that run a node, alloc order
  std::vector<NodeKey> nodes;
  std::vector<Work> remaining;  // per node, at selection time
  // The previous interval's jobs/nodes still unfinished at this decision.
  std::set<JobId> live_prev_jobs;
  std::set<NodeKey> live_prev_nodes;
};

/// Forwards to a real selector and records what each interval runs.  The
/// kernel calls select once per alloc, in alloc order, right after the
/// decision observer, so the observer's assignment names each call's job.
class RecordingSelector final : public NodeSelector {
 public:
  explicit RecordingSelector(NodeSelector& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }

  void select(const Dag& dag, const UnfoldingState& state, std::size_t k,
              std::vector<NodeId>& out) override {
    inner_.select(dag, state, k, out);
    ASSERT_FALSE(intervals_.empty());
    ASSERT_LT(cursor_, alloc_jobs_.size());
    const JobId job = alloc_jobs_[cursor_++];
    unfoldings_.resize(std::max<std::size_t>(unfoldings_.size(), job + 1));
    if (unfoldings_[job] == nullptr && on_first_select) {
      on_first_select(job, state);
    }
    unfoldings_[job] = &state;
    if (out.empty()) return;
    Interval& interval = intervals_.back();
    interval.jobs.push_back(job);
    for (const NodeId node : out) {
      interval.nodes.emplace_back(job, node);
      interval.remaining.push_back(state.remaining_work(node));
    }
  }

  /// Decision observer: opens the decision's interval and snapshots which
  /// of the previous interval's nodes and jobs are still unfinished (the
  /// state the set-difference rule reads at this decision).
  void on_decision(const EngineContext& ctx, const Assignment& assignment) {
    Interval next;
    next.now = ctx.now();
    if (!intervals_.empty()) {
      const Interval& prev = intervals_.back();
      for (const auto& [job, node] : prev.nodes) {
        if (!unfoldings_[job]->is_done(node)) {
          next.live_prev_nodes.emplace(job, node);
        }
      }
      for (const JobId job : prev.jobs) {
        if (!unfoldings_[job]->complete()) next.live_prev_jobs.insert(job);
      }
    }
    intervals_.push_back(std::move(next));
    alloc_jobs_.clear();
    for (const JobAlloc& alloc : assignment.allocs) {
      alloc_jobs_.push_back(alloc.job);
    }
    cursor_ = 0;
  }

  const std::vector<Interval>& intervals() const { return intervals_; }

  /// The unfolding the kernel handed select() for `job`, or null if the job
  /// was never allocated (the descriptor outlives its block: the kernel's
  /// job-state column is not reallocated during a run).
  const UnfoldingState* selected_unfolding(JobId job) const {
    return job < unfoldings_.size() ? unfoldings_[job] : nullptr;
  }

  /// Called at a job's first select(), right after the kernel built its
  /// block.
  std::function<void(JobId, const UnfoldingState&)> on_first_select;

 private:
  NodeSelector& inner_;
  std::vector<Interval> intervals_;
  std::vector<JobId> alloc_jobs_;
  std::size_t cursor_ = 0;
  std::vector<const UnfoldingState*> unfoldings_;
};

/// What the set-difference rule and the recorded intervals say the run's
/// counters must be.
struct Reference {
  std::size_t node_preemptions = 0;
  std::size_t job_preemptions = 0;
  std::vector<DecisionEvent> preempt_events;
  double busy_proc_time = 0.0;
  std::vector<double> executed;
};

Reference reference_from(const std::vector<Interval>& intervals,
                         EngineKind engine, double speed, Time end_time,
                         std::size_t num_jobs) {
  Reference ref;
  ref.executed.assign(num_jobs, 0.0);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const Interval& interval = intervals[i];
    const std::set<NodeKey> running(interval.nodes.begin(),
                                    interval.nodes.end());
    const std::set<JobId> running_jobs(interval.jobs.begin(),
                                       interval.jobs.end());
    for (const NodeKey& key : interval.live_prev_nodes) {
      if (running.count(key) == 0) ++ref.node_preemptions;
    }
    for (const JobId job : interval.live_prev_jobs) {  // ascending id
      if (running_jobs.count(job) != 0) continue;
      ++ref.job_preemptions;
      DecisionEvent event;
      event.time = interval.now;
      event.job = job;
      event.kind = ObsEventKind::kPreempt;
      ref.preempt_events.push_back(event);
    }
    // Event engine: every node of a non-empty interval runs until the next
    // decision; slot engine: each node runs min(speed, remaining) work.
    const Time next =
        i + 1 < intervals.size() ? intervals[i + 1].now : end_time;
    for (std::size_t p = 0; p < interval.nodes.size(); ++p) {
      const Work amount = engine == EngineKind::kEvent
                              ? speed * (next - interval.now)
                              : std::min(speed, interval.remaining[p]);
      ref.busy_proc_time += amount / speed;
      ref.executed[interval.nodes[p].first] += amount;
    }
  }
  return ref;
}

struct Instance {
  JobSet jobs;
  ProcCount m = 4;
  std::uint64_t fault_seed = 1;
  std::string scheduler;
};

/// A small instance at a load where schedulers preempt: one of three
/// scenario families, on 2..8 processors, under one of five schedulers.
Instance random_instance(std::uint64_t seed) {
  static const char* const kSchedulers[] = {"edf", "llf", "s", "equi",
                                            "hdf"};
  Rng rng(seed);
  Instance instance;
  instance.m = static_cast<ProcCount>(rng.uniform_int(2, 8));
  instance.fault_seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
  instance.scheduler = kSchedulers[seed % 5];
  const double load = rng.uniform(0.8, 2.0);
  WorkloadConfig config;
  switch (seed % 3) {
    case 0: config = scenario_shootout(load, instance.m, 0.2, 1.5); break;
    case 1: config = scenario_thm2(0.5, load, instance.m); break;
    default: config = scenario_tight(load, instance.m); break;
  }
  config.horizon = 40.0;
  instance.jobs = generate_workload(rng, config);
  return instance;
}

std::optional<FaultInjector> make_faults(const std::string& mode,
                                         const Instance& instance) {
  std::optional<FaultInjector> injector;
  if (mode == "none") return injector;
  const std::string seed = std::to_string(instance.fault_seed);
  const std::string spec =
      mode == "overrun"
          ? "overrun-prob=0.5,overrun-factor=2,seed=" + seed
          : "mtbf=12,mttr=4,horizon=60,integral=1,min-procs=1,seed=" + seed +
                ",restart=" + (mode == "churn-zero" ? "zero" : "resume");
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

struct RunSetup {
  EngineKind engine = EngineKind::kEvent;
  SelectorKind selector = SelectorKind::kFifo;
  std::string fault_mode = "none";
  CheckpointSink* checkpoint = nullptr;
  const CheckpointFile* resume = nullptr;
  /// Extra decision observer, called after the recorder's.
  std::function<void(const EngineContext&, const Assignment&)> probe;
  /// Installed as the recorder's on_first_select.
  std::function<void(JobId, const UnfoldingState&)> on_first_select;
  /// Wrap the scheduler so the probe may read clairvoyant accessors.
  bool clairvoyant_probe = false;
};

/// Forwards every call to a scheduler but declares itself clairvoyant, so a
/// decision observer may read EngineContext::remaining_span_of for any job.
/// The kernel reads clairvoyant() for that gate only, so the run is
/// unchanged.
class ClairvoyantProbe final : public SchedulerBase {
 public:
  explicit ClairvoyantProbe(SchedulerBase& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return true; }
  void reset() override { inner_.reset(); }
  void on_arrival(const EngineContext& ctx, JobId job) override {
    inner_.on_arrival(ctx, job);
  }
  void on_completion(const EngineContext& ctx, JobId job) override {
    inner_.on_completion(ctx, job);
  }
  void on_deadline(const EngineContext& ctx, JobId job) override {
    inner_.on_deadline(ctx, job);
  }
  void on_capacity_change(const EngineContext& ctx, ProcCount old_m,
                          ProcCount new_m) override {
    inner_.on_capacity_change(ctx, old_m, new_m);
  }
  Time next_wakeup(const EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }
  void decide(const EngineContext& ctx, Assignment& out) override {
    inner_.decide(ctx, out);
  }
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override {
    return inner_.shed_load(ctx, max_jobs);
  }

 private:
  SchedulerBase& inner_;
};

/// One run; with `recorder` set, the selector is wrapped and the decision
/// observer feeds it.
void run(const Instance& instance, const RunSetup& setup, RunOutput& out,
         std::unique_ptr<RecordingSelector>* recorder = nullptr) {
  auto scheduler = make_named_scheduler(instance.scheduler, 0.5);
  std::optional<ClairvoyantProbe> probe;
  SchedulerBase* policy = scheduler.get();
  if (setup.clairvoyant_probe) policy = &probe.emplace(*scheduler);
  auto selector = make_selector(setup.selector, instance.fault_seed);
  NodeSelector* active = selector.get();
  SimOptions options;
  if (recorder != nullptr) {
    *recorder = std::make_unique<RecordingSelector>(*selector);
    active = recorder->get();
    RecordingSelector* rec = recorder->get();
    rec->on_first_select = setup.on_first_select;
    options.observer = [rec, extra = setup.probe](
                           const EngineContext& ctx,
                           const Assignment& assignment) {
      rec->on_decision(ctx, assignment);
      if (extra) extra(ctx, assignment);
    };
  }
  std::optional<FaultInjector> faults = make_faults(setup.fault_mode, instance);
  ObsSink sink;
  sink.events = &out.log;
  options.num_procs = instance.m;
  options.obs = &sink;
  options.faults = faults ? &*faults : nullptr;
  options.checkpoint = setup.checkpoint;
  options.resume = setup.resume;
  out.result =
      run_simulation(setup.engine, instance.jobs, *policy, *active, options);
}

std::string jsonl(const EventLog& log) {
  std::ostringstream out;
  log.write_jsonl(out);
  return out.str();
}

std::vector<DecisionEvent> preempt_events(const EventLog& log) {
  std::vector<DecisionEvent> events;
  for (const DecisionEvent& event : log.events()) {
    if (event.kind == ObsEventKind::kPreempt) events.push_back(event);
  }
  return events;
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

/// The recorded run against its reference.  Returns the reference's node
/// preemption count.
std::size_t expect_matches_reference(const Instance& instance,
                                     const RunSetup& setup,
                                     const RunOutput& got,
                                     const RecordingSelector& recorder) {
  const Reference ref =
      reference_from(recorder.intervals(), setup.engine, 1.0,
                     got.result.end_time, instance.jobs.size());
  EXPECT_EQ(got.result.node_preemptions, ref.node_preemptions);
  EXPECT_EQ(got.result.job_preemptions, ref.job_preemptions);
  EXPECT_EQ(preempt_events(got.log), ref.preempt_events);
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  EXPECT_PRED2(near, got.result.busy_proc_time, ref.busy_proc_time);
  for (std::size_t i = 0; i < instance.jobs.size(); ++i) {
    EXPECT_PRED2(near, got.result.outcomes[i].executed, ref.executed[i])
        << "job " << i;
  }
  return ref.node_preemptions;
}

using Combo = std::tuple<EngineKind, SelectorKind, std::string>;

std::string combo_name(const ::testing::TestParamInfo<Combo>& param_info) {
  std::string name =
      std::string(std::get<0>(param_info.param) == EngineKind::kEvent
                      ? "event_"
                      : "slot_") +
      selector_kind_name(std::get<1>(param_info.param)) + "_" +
      std::get<2>(param_info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class PreemptionOracle : public ::testing::TestWithParam<Combo> {};

TEST_P(PreemptionOracle, CountedPreemptionsMatchSetDifference) {
  const auto& [engine, selector, fault_mode] = GetParam();
  constexpr std::uint64_t kInstances = 12;
  std::size_t preempted_somewhere = 0;
  for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    const Instance instance = random_instance(seed);
    RunSetup setup;
    setup.engine = engine;
    setup.selector = selector;
    setup.fault_mode = fault_mode;
    RunOutput plain;
    run(instance, setup, plain);
    ASSERT_FALSE(plain.result.failed()) << plain.result.failure_message;
    RunOutput recorded;
    std::unique_ptr<RecordingSelector> recorder;
    run(instance, setup, recorded, &recorder);

    expect_same_result(plain.result, recorded.result);
    EXPECT_EQ(jsonl(recorded.log), jsonl(plain.log));
    if (expect_matches_reference(instance, setup, recorded, *recorder) > 0) {
      ++preempted_somewhere;
    }
  }
  // The instances are contended: most runs preempt nodes, which is the
  // state the counted rule has to get right.
  EXPECT_GT(preempted_somewhere, kInstances / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllSelectors, PreemptionOracle,
    ::testing::Combine(
        ::testing::Values(EngineKind::kEvent, EngineKind::kSlot),
        ::testing::Values(SelectorKind::kFifo, SelectorKind::kLifo,
                          SelectorKind::kRandom, SelectorKind::kAdversarial,
                          SelectorKind::kCriticalPath),
        ::testing::Values("none", "churn-resume", "churn-zero")),
    combo_name);

// The random selector's stream is not part of a checkpoint, so a resumed
// run continues with a fresh stream; the resume case uses the four
// deterministic selectors.
class PreemptionOracleResume : public ::testing::TestWithParam<Combo> {};

TEST_P(PreemptionOracleResume, ResumedRunRestoresThePreviousInterval) {
  const auto& [engine, selector, fault_mode] = GetParam();
  Instance instance = random_instance(101);
  instance.scheduler = "edf";
  RunSetup setup;
  setup.engine = engine;
  setup.selector = selector;
  setup.fault_mode = fault_mode;
  RunOutput want;
  std::unique_ptr<RecordingSelector> recorder;
  run(instance, setup, want, &recorder);
  ASSERT_GE(want.result.decisions, 8u);
  expect_matches_reference(instance, setup, want, *recorder);

  // Snapshot every quarter of the run and keep the last two, so the final
  // on-disk snapshot lands mid-run with a non-empty previous interval.
  std::string tag = std::string(engine == EngineKind::kEvent ? "ev_" : "sl_") +
                    selector_kind_name(selector) + "_" + fault_mode;
  std::replace(tag.begin(), tag.end(), '-', '_');
  const std::string path =
      ::testing::TempDir() + "preemption_oracle_" + tag + ".ckpt";
  const auto interval = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(want.result.decisions) / 4);
  RunOutput checkpointed;
  CheckpointMeta meta;
  meta.scheduler = instance.scheduler;
  CheckpointSink sink(path, interval, meta, &checkpointed.log);
  sink.set_snapshot_limit(2);
  RunSetup writing = setup;
  writing.checkpoint = &sink;
  run(instance, writing, checkpointed);
  ASSERT_GT(sink.snapshots(), 0u);

  const CheckpointFile file = read_checkpoint_file(path);
  RunSetup resuming = setup;
  resuming.resume = &file;
  RunOutput resumed;
  run(instance, resuming, resumed);
  const std::vector<DecisionEvent> suffix(
      want.log.events().begin() +
          static_cast<std::ptrdiff_t>(file.meta.events_emitted),
      want.log.events().end());
  EXPECT_EQ(resumed.log.events(), suffix);
  // Node preemptions and busy time never reach the event log: the resumed
  // counters are the restored previous interval's only witness.
  expect_same_result(want.result, resumed.result);
}

INSTANTIATE_TEST_SUITE_P(
    DeterministicSelectors, PreemptionOracleResume,
    ::testing::Combine(
        ::testing::Values(EngineKind::kEvent, EngineKind::kSlot),
        ::testing::Values(SelectorKind::kFifo, SelectorKind::kLifo,
                          SelectorKind::kAdversarial,
                          SelectorKind::kCriticalPath),
        ::testing::Values("none", "churn-resume", "churn-zero")),
    combo_name);

// Wide intervals: at m=128 an event-engine interval runs >= 64 (job, node)
// entries, many of them several nodes of one job group.
TEST(PreemptionOracleWide, WideAdvanceMatchesReference) {
  Rng rng(33);
  WorkloadConfig config = scenario_shootout(1.3, 128, 0.3, 1.2);
  config.horizon = 30.0;
  config.family = DagFamily::kParallelBlock;
  Instance instance;
  instance.jobs = generate_workload(rng, config);
  instance.m = 128;
  instance.scheduler = "edf";

  RunSetup setup;
  RunOutput serial;
  std::unique_ptr<RecordingSelector> recorder;
  run(instance, setup, serial, &recorder);
  ASSERT_GT(serial.result.busy_proc_time / serial.result.end_time, 64.0)
      << "workload too narrow to reach wide intervals";
  ASSERT_GT(serial.result.jobs_completed, 0u);
  expect_matches_reference(instance, setup, serial, *recorder);
}

// ---- Shadow unfolding --------------------------------------------------------
//
// The kernel builds a job's per-node block at its first allocation and
// returns it at completion; before and after, JobView and the clairvoyant
// remaining span answer from the Dag and scalar columns.  Each such answer
// is checked against an eagerly built, heap-owned UnfoldingState -- the
// state every arrived job had when blocks were built at arrival:
//   * arrived, never allocated: a fresh one (with the fault plan's scaled
//     works);
//   * allocated: the block itself, which at its first select() must equal
//     the fresh one node by node;
//   * completed: a fresh one run to completion.

/// Eager witnesses per job, built on first use.
class EagerShadow {
 public:
  EagerShadow(const JobSet& jobs, const FaultInjector* faults)
      : jobs_(jobs), faults_(faults), fresh_(jobs.size()) {}

  const UnfoldingState& fresh(JobId job) {
    if (fresh_[job] == nullptr) fresh_[job] = build(job);
    return *fresh_[job];
  }

  std::unique_ptr<UnfoldingState> finished(JobId job) {
    std::unique_ptr<UnfoldingState> state = build(job);
    while (!state->complete()) {
      const NodeId node = state->ready()[0];
      state->advance(node, state->remaining_work(node));
    }
    return state;
  }

  /// The JobView reads and the clairvoyant span of every job at a decision.
  void check(const EngineContext& ctx, const RecordingSelector& recorder) {
    if (::testing::Test::HasFailure()) return;  // one report, not thousands
    for (JobId id = 0; id < jobs_.size(); ++id) {
      const JobView view = ctx.view(id);
      if (!view.arrived()) {
        EXPECT_EQ(view.ready_count(), 0u) << "job " << id;
        EXPECT_EQ(view.remaining_work(), jobs_[id].work()) << "job " << id;
        continue;
      }
      std::unique_ptr<UnfoldingState> done;
      const UnfoldingState* want = recorder.selected_unfolding(id);
      if (view.completed()) {
        done = finished(id);
        want = done.get();
      } else if (want == nullptr) {
        want = &fresh(id);
      }
      EXPECT_EQ(view.ready_count(), view.completed() ? 0 : want->ready_count())
          << "job " << id << " at t=" << ctx.now();
      EXPECT_EQ(view.remaining_work(), want->total_remaining_work())
          << "job " << id << " at t=" << ctx.now();
      EXPECT_EQ(ctx.remaining_span_of(id), want->remaining_span())
          << "job " << id << " at t=" << ctx.now();
    }
  }

  /// The block the kernel just built against a fresh eager state.
  void check_built(JobId job, const UnfoldingState& built) {
    const UnfoldingState& want = fresh(job);
    ASSERT_TRUE(built.has_block());
    ASSERT_TRUE(std::equal(built.ready().begin(), built.ready().end(),
                           want.ready().begin(), want.ready().end()))
        << "job " << job;
    EXPECT_EQ(built.nodes_remaining(), want.nodes_remaining());
    EXPECT_EQ(built.total_remaining_work(), want.total_remaining_work());
    EXPECT_EQ(built.remaining_span(), want.remaining_span());
    for (NodeId v = 0; v < want.dag().num_nodes(); ++v) {
      EXPECT_EQ(built.remaining_work(v), want.remaining_work(v)) << v;
      EXPECT_EQ(built.initial_work(v), want.initial_work(v)) << v;
      EXPECT_EQ(built.is_ready(v), want.is_ready(v)) << v;
    }
  }

 private:
  std::unique_ptr<UnfoldingState> build(JobId job) const {
    const Dag& dag = jobs_[job].dag();
    const std::vector<Work> works =
        faults_ != nullptr ? faults_->scaled_works(job, dag)
                           : std::vector<Work>{};
    return works.empty() ? std::make_unique<UnfoldingState>(dag)
                         : std::make_unique<UnfoldingState>(dag, works);
  }

  const JobSet& jobs_;
  const FaultInjector* faults_;
  std::vector<std::unique_ptr<UnfoldingState>> fresh_;
};

using ShadowCombo = std::tuple<std::string, EngineKind, std::string>;

std::string shadow_name(const ::testing::TestParamInfo<ShadowCombo>& info) {
  std::string name = std::get<0>(info.param) + "_" +
                     (std::get<1>(info.param) == EngineKind::kEvent
                          ? "event_"
                          : "slot_") +
                     std::get<2>(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

class ShadowUnfolding : public ::testing::TestWithParam<ShadowCombo> {};

TEST_P(ShadowUnfolding, BlocklessReadsMatchAnEagerUnfolding) {
  const auto& [scheduler, engine, fault_mode] = GetParam();
  if (scheduler == "profit" && engine == EngineKind::kEvent) {
    GTEST_SKIP() << "the profit scheduler runs on the slot engine only";
  }
  std::size_t deferred_reads = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("instance seed " + std::to_string(seed));
    Instance instance = random_instance(seed);
    instance.scheduler = scheduler;
    const std::optional<FaultInjector> faults =
        make_faults(fault_mode, instance);
    EagerShadow shadow(instance.jobs, faults ? &*faults : nullptr);
    std::unique_ptr<RecordingSelector> recorder;
    RunSetup setup;
    setup.engine = engine;
    setup.fault_mode = fault_mode;
    setup.clairvoyant_probe = true;
    setup.on_first_select = [&shadow](JobId job, const UnfoldingState& built) {
      shadow.check_built(job, built);
    };
    setup.probe = [&](const EngineContext& ctx, const Assignment&) {
      shadow.check(ctx, *recorder);
      for (const JobId id : ctx.active_jobs()) {
        if (recorder->selected_unfolding(id) == nullptr) ++deferred_reads;
      }
    };
    RunSetup plain_setup;
    plain_setup.engine = engine;
    plain_setup.fault_mode = fault_mode;
    RunOutput plain;
    run(instance, plain_setup, plain);
    RunOutput probed;
    run(instance, setup, probed, &recorder);
    // The probe wrapper and the reads leave the run unchanged.
    expect_same_result(plain.result, probed.result);
    EXPECT_EQ(jsonl(probed.log), jsonl(plain.log));
  }
  // Active jobs the machine has not run yet are the block-less case.
  EXPECT_GT(deferred_reads, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ShadowUnfolding,
    ::testing::Combine(::testing::ValuesIn(named_scheduler_list()),
                       ::testing::Values(EngineKind::kEvent,
                                         EngineKind::kSlot),
                       ::testing::Values("none", "churn-resume",
                                         "churn-zero", "overrun")),
    shadow_name);

}  // namespace
}  // namespace dagsched
