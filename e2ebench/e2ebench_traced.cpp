// e2ebench_traced -- the benchmark's traced, in-process run.
//
//   e2ebench_traced run FILE --scheduler NAME --m M [--events OUT.jsonl]
//   e2ebench_traced sweep CELLS.jsonl --threads T
//   e2ebench_traced sweep CELLS.jsonl --events-dir DIR
//   e2ebench_traced info
//
// `run` and `sweep` call the public functions `dagsched run` / `dagsched
// sweep --cells` call, in the same order, with a span around each layer
// call ("mirror" spans under the root span `total`).  Attribution passes
// that the CLI does not make -- re-building every DAG, and for the sweep a
// one-cell-at-a-time pass through run_sweep_cell plus a pass with the
// tracing wrappers -- run after `total` ends.  The result is one JSON
// object on stdout: the run's summary (for comparison with the CLI's
// output), the per-layer metrics and the spans.  `run --events` also
// writes the decision log; `sweep --events-dir` runs only the wrapped pass
// and writes each cell's log.  The logs are for digest comparisons.
//
// `info` prints the build stamp: compiler, optimisation and NDEBUG.
#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dag/builder.h"
#include "exp/runner.h"
#include "exp/sweep/report_writer.h"
#include "exp/sweep/sweep.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/event_log.h"
#include "obs/sink.h"
#include "obs/sweep_report.h"
#include "obs/telemetry/telemetry.h"
#include "sim/metrics.h"
#include "tracing.h"
#include "util/arg_parse.h"
#include "util/json.h"
#include "workload/workload_io.h"

namespace {

using namespace dagsched;
using e2ebench::CallStats;
using e2ebench::Tracer;
using e2ebench::TracingScheduler;
using e2ebench::TracingSelector;

double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The CLI prints profits with the default ostream format; the benchmark
/// compares its summary lines against these strings.
std::string cli_number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// Per-call aggregates of the tracing wrappers, summed over one or more
/// simulations.
struct CallTotals {
  CallStats decide;
  CallStats arrival;
  CallStats event;
  CallStats select;
  std::vector<std::int64_t> decide_samples;

  void add(const TracingScheduler& scheduler,
           const TracingSelector& selector) {
    const auto merge = [](CallStats& into, const CallStats& from) {
      into.calls += from.calls;
      into.total_ns += from.total_ns;
    };
    merge(decide, scheduler.decide_stats());
    merge(arrival, scheduler.arrival_stats());
    merge(event, scheduler.event_stats());
    merge(select, selector.stats());
    const std::vector<std::int64_t>& samples = scheduler.decide_samples();
    decide_samples.insert(decide_samples.end(), samples.begin(),
                          samples.end());
  }

  double callback_seconds() const {
    return decide.seconds() + arrival.seconds() + event.seconds() +
           select.seconds();
  }
};

struct InputStats {
  double bytes = 0.0;
  double jobs = 0.0;
  double nodes = 0.0;
  double edges = 0.0;
};

void count_input(const std::string& path, const JobSet& jobs,
                 InputStats& stats) {
  stats.bytes += static_cast<double>(std::filesystem::file_size(path));
  stats.jobs += static_cast<double>(jobs.size());
  for (const Job& job : jobs.jobs()) {
    stats.nodes += job.dag().num_nodes();
    stats.edges += static_cast<double>(job.dag().num_edges());
  }
}

/// Re-runs DagBuilder::build over every job's node works and edges and
/// returns the time spent inside build() alone.
double rebuild_dags(const JobSet& jobs) {
  std::int64_t build_ns = 0;
  for (const Job& job : jobs.jobs()) {
    const Dag& dag = job.dag();
    DagBuilder builder;
    builder.reserve(dag.num_nodes(), dag.num_edges());
    for (NodeId node = 0; node < dag.num_nodes(); ++node) {
      builder.add_node(dag.node_work(node));
    }
    for (NodeId node = 0; node < dag.num_nodes(); ++node) {
      for (const NodeId next : dag.successors(node)) {
        builder.add_edge(node, next);
      }
    }
    const std::int64_t start = e2ebench::now_ns();
    const Dag rebuilt = std::move(builder).build();
    build_ns += e2ebench::now_ns() - start;
    if (rebuilt.num_nodes() != dag.num_nodes()) {
      throw std::runtime_error("DAG rebuild changed the node count");
    }
  }
  return static_cast<double>(build_ns) / 1e9;
}

/// Parses and materializes a fault spec the way the CLI does (empty spec
/// = no injection).
std::optional<FaultInjector> make_injector(const std::string& spec,
                                           ProcCount m) {
  std::optional<FaultInjector> injector;
  if (spec.empty()) return injector;
  std::string error;
  const auto config = parse_fault_spec(spec, &error);
  if (!config) throw std::invalid_argument("bad fault spec: " + error);
  injector.emplace(build_fault_plan(*config, m));
  return injector;
}

/// Fills the per-layer metrics shared by `run` and `sweep`.
JsonValue layer_metrics(const Tracer& tracer, const InputStats& input,
                        double dag_build_s, double sim_run_s,
                        double decisions, double sim_rss_delta_mb,
                        CallTotals& calls, double fault_setup_s,
                        double fault_transitions) {
  JsonValue layers = JsonValue::object();
  const double load_s = tracer.total("workload");
  layers.set("workload.load_s", load_s);
  layers.set("workload.bytes", input.bytes);
  layers.set("workload.jobs", input.jobs);
  layers.set("workload.nodes", input.nodes);
  layers.set("workload.edges", input.edges);
  layers.set("workload.mb_per_s", input.bytes / 1e6 / load_s);
  layers.set("dag.build_s", dag_build_s);
  layers.set("dag.build_share", dag_build_s / load_s);
  layers.set("sim.run_s", sim_run_s);
  layers.set("sim.self_s", sim_run_s - calls.callback_seconds());
  layers.set("sim.decisions", decisions);
  layers.set("sim.ns_per_decision",
             decisions > 0.0 ? sim_run_s * 1e9 / decisions : 0.0);
  layers.set("sim.rss_delta_mb", sim_rss_delta_mb);
  layers.set("sched.decide_s", calls.decide.seconds());
  layers.set("sched.decide_calls", calls.decide.calls);
  layers.set("sched.decide_p50_ns",
             e2ebench::percentile_ns(calls.decide_samples, 0.50));
  layers.set("sched.decide_p99_ns",
             e2ebench::percentile_ns(calls.decide_samples, 0.99));
  layers.set("sched.arrival_s", calls.arrival.seconds());
  layers.set("sched.arrival_calls", calls.arrival.calls);
  layers.set("sched.event_s", calls.event.seconds());
  layers.set("select.s", calls.select.seconds());
  layers.set("select.calls", calls.select.calls);
  layers.set("fault.setup_s", fault_setup_s);
  layers.set("fault.transitions", fault_transitions);
  return layers;
}

/// Share of the root span `total` that its direct children cover.
double covered_fraction(const Tracer& tracer) {
  const std::vector<e2ebench::Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "total") continue;
    double covered = 0.0;
    for (const e2ebench::Span& span : spans) {
      if (span.parent == static_cast<int>(i)) covered += span.seconds();
    }
    return covered / spans[i].seconds();
  }
  return 0.0;
}

JsonValue spans_json(const Tracer& tracer) {
  JsonValue out = JsonValue::array();
  const std::int64_t origin =
      tracer.spans().empty() ? 0 : tracer.spans().front().start_ns;
  for (const e2ebench::Span& span : tracer.spans()) {
    JsonValue entry = JsonValue::object();
    entry.set("name", span.name);
    entry.set("start_s", static_cast<double>(span.start_ns - origin) / 1e9);
    entry.set("end_s", static_cast<double>(span.end_ns - origin) / 1e9);
    entry.set("parent", span.parent);
    out.push_back(std::move(entry));
  }
  return out;
}

int cmd_run(ArgParser& args) {
  if (args.positional().size() != 2) {
    std::cerr << "usage: e2ebench_traced run FILE --scheduler NAME --m M\n";
    return 1;
  }
  const std::string path = args.positional()[1];
  const std::string scheduler_name = args.get_string("scheduler", "s");
  const auto m = static_cast<ProcCount>(args.get_int("m", 8));
  const std::string events_path = args.get_string("events", "");
  args.finish();

  // Mirror of cmd_run: load, fault plan, wiring, simulate, metrics, emit.
  Tracer tracer;
  std::optional<Tracer::Scope> total(std::in_place, tracer, "total");
  std::optional<JobSet> loaded;
  {
    Tracer::Scope span(tracer, "workload");
    loaded.emplace(load_workload(path));
  }
  const JobSet& jobs = *loaded;
  std::optional<FaultInjector> injector;
  {
    Tracer::Scope span(tracer, "fault");
    injector = make_injector("", m);
  }
  EventLog event_log;
  ObsSink sink;
  if (!events_path.empty()) sink.events = &event_log;
  auto scheduler = make_named_scheduler(scheduler_name, 0.5);
  auto selector = make_selector(SelectorKind::kFifo, 1);
  TracingScheduler traced_scheduler(*scheduler);
  TracingSelector traced_selector(*selector);
  SimOptions options;
  options.num_procs = m;
  options.obs = sink.enabled() ? &sink : nullptr;
  options.faults = injector ? &*injector : nullptr;
  const double rss_before = max_rss_mb();
  std::optional<SimResult> simulated;
  {
    Tracer::Scope span(tracer, "sim");
    simulated.emplace(run_simulation(EngineKind::kEvent, jobs,
                                     traced_scheduler, traced_selector,
                                     options));
  }
  const double rss_delta = max_rss_mb() - rss_before;
  const SimResult& result = *simulated;
  {
    Tracer::Scope span(tracer, "report");
    const ScheduleMetrics metrics = compute_metrics(result, jobs, m);
    if (metrics.completed != result.jobs_completed) {
      throw std::runtime_error("compute_metrics disagrees on completions");
    }
  }
  double event_bytes = 0.0;
  if (!events_path.empty()) {
    Tracer::Scope span(tracer, "obs");
    std::ofstream out(events_path, std::ios::binary);
    event_log.write_jsonl(out);
    event_bytes = static_cast<double>(out.tellp());
    out.close();
    if (!out) throw std::runtime_error("cannot write " + events_path);
  }
  total.reset();

  InputStats input;
  count_input(path, jobs, input);
  double dag_build_s = 0.0;
  {
    Tracer::Scope span(tracer, "attribution.dag");
    dag_build_s = rebuild_dags(jobs);
  }
  CallTotals calls;
  calls.add(traced_scheduler, traced_selector);

  // Independent check of the reported totals against per-job outcomes.
  double outcome_profit = 0.0;
  std::size_t outcome_completed = 0;
  for (const JobOutcome& outcome : result.outcomes) {
    outcome_profit += outcome.profit;
    if (outcome.completed) ++outcome_completed;
  }

  JsonValue summary = JsonValue::object();
  summary.set("jobs", static_cast<std::uint64_t>(jobs.size()));
  summary.set("completed", static_cast<std::uint64_t>(result.jobs_completed));
  summary.set("decisions", static_cast<std::uint64_t>(result.decisions));
  summary.set("profit", result.total_profit);
  summary.set("peak_profit", jobs.total_peak_profit());
  summary.set("profit_text", cli_number(result.total_profit));
  summary.set("peak_text", cli_number(jobs.total_peak_profit()));
  summary.set("percent_text",
              cli_number(100.0 * profit_fraction(result, jobs)));
  summary.set("failure", sim_failure_kind_name(result.failure));
  summary.set("outcomes_consistent",
              outcome_completed == result.jobs_completed &&
                  std::abs(outcome_profit - result.total_profit) <=
                      1e-6 * std::max(1.0, result.total_profit));

  JsonValue layers = layer_metrics(
      tracer, input, dag_build_s, tracer.total("sim"),
      static_cast<double>(result.decisions), rss_delta, calls,
      tracer.total("fault"), 0.0);
  layers.set("obs.events", static_cast<std::uint64_t>(event_log.size()));
  layers.set("obs.bytes", event_bytes);
  layers.set("obs.write_s", tracer.total("obs"));
  layers.set("report.metrics_s", tracer.total("report"));
  layers.set("trace.covered_frac", covered_fraction(tracer));

  JsonValue doc = JsonValue::object();
  doc.set("summary", std::move(summary));
  doc.set("traced_total_s", tracer.total("total"));
  doc.set("layers", std::move(layers));
  doc.set("spans", spans_json(tracer));
  doc.write(std::cout);
  std::cout << "\n";
  return 0;
}

/// Reads the benchmark's cells file: one JSON object per line with id,
/// workload, scheduler, engine, m, and optionally fault + faults -- the
/// subset of `dagsched sweep --cells` keys the benchmark writes.
std::vector<SweepCellSpec> read_cells(const std::string& path,
                                      std::map<std::string, JobSet>& pool,
                                      Tracer& tracer) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<SweepCellSpec> cells;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonParseResult parsed = json_parse(line);
    if (!parsed.ok) throw std::runtime_error(path + ": " + parsed.error);
    const JsonValue& cell = parsed.value;
    SweepCellSpec spec;
    spec.id = cell.at("id").as_string();
    const std::string workload = cell.at("workload").as_string();
    spec.workload_label = workload;
    spec.scheduler = cell.at("scheduler").as_string();
    spec.engine = *parse_engine_kind(cell.at("engine").as_string());
    spec.m = static_cast<ProcCount>(cell.at("m").as_number());
    if (const JsonValue* faults = cell.find("faults")) {
      spec.fault_spec = faults->as_string();
      spec.fault_label = cell.at("fault").as_string();
    }
    auto it = pool.find(workload);
    if (it == pool.end()) {
      Tracer::Scope span(tracer, "workload");
      it = pool.emplace(workload, load_workload(workload)).first;
    }
    spec.jobs = &it->second;
    cells.push_back(std::move(spec));
  }
  return cells;
}

struct WrappedCell {
  RunMetrics metrics;
  std::string events_jsonl;
};

/// One sweep cell through the tracing wrappers, wired like run_sweep_cell.
WrappedCell run_wrapped_cell(const SweepCellSpec& spec, bool capture_events,
                             Tracer& tracer, CallTotals& calls,
                             double& fault_transitions) {
  auto scheduler = make_named_scheduler(spec.scheduler, spec.eps);
  std::optional<FaultInjector> injector;
  {
    Tracer::Scope span(tracer, "fault");
    injector = make_injector(spec.fault_spec, spec.m);
  }
  if (injector) {
    fault_transitions += static_cast<double>(injector->transitions().size());
  }
  TelemetryOptions telemetry_options;
  telemetry_options.include_rss = false;
  TelemetryRecorder telemetry(telemetry_options);
  MetricRegistry registry;
  EventLog events;
  ObsSink sink;
  sink.metrics = &registry;
  if (capture_events) sink.events = &events;
  auto selector = make_selector(spec.selector, spec.selector_seed);
  TracingScheduler traced_scheduler(*scheduler);
  TracingSelector traced_selector(*selector);
  SimOptions options;
  options.num_procs = spec.m;
  options.speed = spec.speed;
  options.obs = &sink;
  options.faults = injector ? &*injector : nullptr;
  options.telemetry = &telemetry;
  std::optional<SimResult> simulated;
  {
    Tracer::Scope span(tracer, "sim");
    simulated.emplace(run_simulation(spec.engine, *spec.jobs,
                                     traced_scheduler, traced_selector,
                                     options));
  }
  calls.add(traced_scheduler, traced_selector);
  const SimResult& result = *simulated;
  WrappedCell cell;
  cell.metrics.profit = result.total_profit;
  cell.metrics.completed = result.jobs_completed;
  cell.metrics.num_jobs = spec.jobs->size();
  cell.metrics.decisions = result.decisions;
  cell.metrics.busy_proc_time = result.busy_proc_time;
  cell.metrics.lost_work = result.lost_work;
  cell.metrics.node_preemptions = result.node_preemptions;
  cell.metrics.job_preemptions = result.job_preemptions;
  cell.metrics.failure = result.failure;
  if (capture_events) {
    std::ostringstream out;
    events.write_jsonl(out);
    cell.events_jsonl = std::move(out).str();
  }
  return cell;
}

bool same_run(const RunMetrics& a, const RunMetrics& b) {
  return a.profit == b.profit && a.completed == b.completed &&
         a.num_jobs == b.num_jobs && a.decisions == b.decisions &&
         a.busy_proc_time == b.busy_proc_time && a.lost_work == b.lost_work &&
         a.node_preemptions == b.node_preemptions &&
         a.job_preemptions == b.job_preemptions && a.failure == b.failure;
}

/// `sweep --events-dir DIR`: only the wrapped pass, capturing each cell's
/// decision log into DIR/<id>.jsonl the way `dagsched sweep --events-dir`
/// writes them, for the digest comparison.
int sweep_event_logs(const std::string& cells_path,
                     const std::string& events_dir) {
  Tracer tracer;
  std::map<std::string, JobSet> pool;
  const std::vector<SweepCellSpec> cells = read_cells(cells_path, pool, tracer);
  std::filesystem::create_directories(events_dir);
  CallTotals calls;
  double fault_transitions = 0.0;
  JsonValue cell_list = JsonValue::array();
  for (const SweepCellSpec& spec : cells) {
    const WrappedCell cell =
        run_wrapped_cell(spec, true, tracer, calls, fault_transitions);
    std::ofstream out(events_dir + "/" + spec.id + ".jsonl", std::ios::binary);
    out << cell.events_jsonl;
    if (!out) throw std::runtime_error("cannot write " + events_dir);
    cell_list.push_back(spec.id);
  }
  JsonValue doc = JsonValue::object();
  doc.set("cells", std::move(cell_list));
  doc.write(std::cout);
  std::cout << "\n";
  return 0;
}

int cmd_sweep(ArgParser& args) {
  if (args.positional().size() != 2) {
    std::cerr << "usage: e2ebench_traced sweep CELLS --threads T\n";
    return 1;
  }
  const std::string cells_path = args.positional()[1];
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::string events_dir = args.get_string("events-dir", "");
  args.finish();

  if (!events_dir.empty()) return sweep_event_logs(cells_path, events_dir);

  // Mirror of cmd_sweep_run: load the pooled workloads, run the sweep,
  // write + re-parse + format the report.
  Tracer tracer;
  std::map<std::string, JobSet> pool;
  std::optional<Tracer::Scope> total(std::in_place, tracer, "total");
  std::vector<SweepCellSpec> cells = read_cells(cells_path, pool, tracer);
  SweepOptions options;
  options.threads = threads;
  std::vector<SweepCellSpec> to_run = cells;
  const double rss_before = max_rss_mb();
  std::optional<SweepResult> swept;
  {
    Tracer::Scope span(tracer, "sweep.parallel");
    swept.emplace(run_sweep(std::move(to_run), options));
  }
  const double rss_delta = max_rss_mb() - rss_before;
  const SweepResult& sweep = *swept;
  {
    Tracer::Scope span(tracer, "report");
    std::ostringstream report;
    write_sweep_report(report, sweep);
    std::istringstream parse_in(report.str());
    std::string error;
    const auto doc = parse_sweep_report(parse_in, &error);
    if (!doc) throw std::runtime_error("sweep report: " + error);
    if (format_sweep_report(*doc).empty()) {
      throw std::runtime_error("empty sweep report");
    }
  }
  total.reset();

  // Attribution passes.  Cells one at a time through run_sweep_cell (the
  // executor's per-worker body), then through the tracing wrappers.
  double serial_s = 0.0;
  double slowest_cell_s = 0.0;
  std::vector<SweepCellResult> serial(cells.size());
  {
    Tracer::Scope span(tracer, "attribution.serial");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::int64_t start = e2ebench::now_ns();
      serial[i] = run_sweep_cell(cells[i], options);
      const double cell_s =
          static_cast<double>(e2ebench::now_ns() - start) / 1e9;
      serial_s += cell_s;
      slowest_cell_s = std::max(slowest_cell_s, cell_s);
    }
  }
  CallTotals calls;
  double fault_transitions = 0.0;
  std::vector<WrappedCell> wrapped;
  {
    Tracer::Scope span(tracer, "attribution.wrapped");
    for (const SweepCellSpec& spec : cells) {
      wrapped.push_back(
          run_wrapped_cell(spec, false, tracer, calls, fault_transitions));
    }
  }
  InputStats input;
  double dag_build_s = 0.0;
  {
    Tracer::Scope span(tracer, "attribution.dag");
    for (const auto& [path, jobs] : pool) {
      count_input(path, jobs, input);
      dag_build_s += rebuild_dags(jobs);
    }
  }
  JsonValue cell_list = JsonValue::array();
  JsonValue mismatches = JsonValue::array();
  double decisions = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& done = sweep.results[i];
    decisions += static_cast<double>(done.metrics.decisions);
    if (!same_run(done.metrics, serial[i].metrics) ||
        !same_run(done.metrics, wrapped[i].metrics)) {
      mismatches.push_back(cells[i].id);
    }
    JsonValue cell = JsonValue::object();
    cell.set("id", cells[i].id);
    cell.set("ok", done.ok());
    cell.set("jobs", static_cast<std::uint64_t>(done.metrics.num_jobs));
    cell.set("completed", static_cast<std::uint64_t>(done.metrics.completed));
    cell.set("decisions", static_cast<std::uint64_t>(done.metrics.decisions));
    cell.set("profit", done.metrics.profit);
    cell.set("failure", sim_failure_kind_name(done.metrics.failure));
    cell_list.push_back(std::move(cell));
  }

  const double parallel_s = tracer.total("sweep.parallel");
  JsonValue layers =
      layer_metrics(tracer, input, dag_build_s, tracer.total("sim"),
                    decisions, rss_delta, calls, tracer.total("fault"),
                    fault_transitions);
  layers.set("obs.events", 0);
  layers.set("obs.bytes", 0);
  layers.set("obs.write_s", 0.0);
  layers.set("report.metrics_s", tracer.total("report"));
  layers.set("sweep.cells", static_cast<std::uint64_t>(cells.size()));
  layers.set("sweep.serial_s", serial_s);
  layers.set("sweep.parallel_s", parallel_s);
  layers.set("sweep.parallel_eff",
             serial_s / (parallel_s * static_cast<double>(sweep.threads)));
  layers.set("sweep.slowest_cell_s", slowest_cell_s);
  layers.set("trace.covered_frac", covered_fraction(tracer));

  JsonValue doc = JsonValue::object();
  doc.set("cells", std::move(cell_list));
  doc.set("parity_mismatches", std::move(mismatches));
  doc.set("threads", static_cast<std::uint64_t>(sweep.threads));
  doc.set("traced_total_s", tracer.total("total"));
  doc.set("layers", std::move(layers));
  doc.set("spans", spans_json(tracer));
  doc.write(std::cout);
  std::cout << "\n";
  return 0;
}

int cmd_info() {
  JsonValue doc = JsonValue::object();
  doc.set("compiler", __VERSION__);
#ifdef __OPTIMIZE__
  doc.set("optimized", true);
#else
  doc.set("optimized", false);
#endif
#ifdef NDEBUG
  doc.set("ndebug", true);
#else
  doc.set("ndebug", false);
#endif
  doc.set("cplusplus", static_cast<std::int64_t>(__cplusplus));
  doc.write(std::cout);
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    const std::string command =
        args.positional().empty() ? "" : args.positional()[0];
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "info") return cmd_info();
    std::cerr << "usage: e2ebench_traced run|sweep|info ...\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "e2ebench_traced: " << error.what() << "\n";
    return 1;
  }
}
