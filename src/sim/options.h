// SimOptions: the one description of a run's machine and instrumentation.
//
// A run is m processors at speed s plus a policy; everything else here is
// an optional hook that is null/zero = off, and an off hook leaves the run
// byte-identical to one without it.  Both stepping drivers (EventEngine,
// SlotEngine) and the SimKernel under them read this struct directly.
// Each engine ignores the one cap that belongs to the other discipline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "fault/injector.h"
#include "obs/sink.h"
#include "sim/assignment.h"
#include "sim/context.h"

namespace dagsched {

class CheckpointSink;
struct CheckpointFile;
class TelemetryRecorder;

struct SimOptions {
  ProcCount num_procs = 1;
  /// Resource augmentation: work units per processor-time-unit.
  double speed = 1.0;
  /// Record a full execution trace into SimResult::trace (O(#intervals)).
  bool record_trace = false;
  /// Decision-point cap, a livelock guard (event engine only; 0 =
  /// unlimited).  Exhausting it fails the run with kDecisionBudget.
  std::size_t max_decisions = 100'000'000;
  /// Slot cap (slot engine only; 0 = derive a generous bound from the
  /// workload).  Unfinished jobs earn no profit.
  std::uint64_t max_slots = 0;
  /// Invoked after each decision has been validated (property-test hook).
  std::function<void(const EngineContext&, const Assignment&)> observer{};
  /// Observability sink (counters / decision events / span timers).
  const ObsSink* obs = nullptr;
  /// Fault injector (processor churn / work overruns).  Processor
  /// transitions become decision points; use integral transition times for
  /// slot-aligned churn.
  const FaultInjector* faults = nullptr;
  /// Runtime-telemetry recorder (obs/telemetry): latency histograms and
  /// periodic snapshots, timed outside the scheduler callbacks.
  TelemetryRecorder* telemetry = nullptr;
  /// Periodic checkpoint writer (sim/checkpoint), written at the top of the
  /// stepping loop before event delivery.
  CheckpointSink* checkpoint = nullptr;
  /// Parsed checkpoint to resume from (already verified compatible).
  const CheckpointFile* resume = nullptr;
  /// Crash-recovery test hook: _Exit(9) immediately after decision #N is
  /// counted, before any of its effects reach a log or checkpoint (0 = off).
  std::size_t die_at_decision = 0;
  /// Overload degradation: wall-clock budget per decide() in ns (0 = off).
  /// A breach sheds up to overload_shed_max of the scheduler's
  /// lowest-density jobs (SchedulerBase::shed_load); the first under-budget
  /// decision recovers.
  std::uint64_t decide_budget_ns = 0;
  std::size_t overload_shed_max = 1;
  /// Test hook replacing the measured decide latency.  Arguments: decision
  /// number (1-based), measured nanoseconds.
  std::function<std::uint64_t(std::size_t, std::uint64_t)> overload_probe{};
};

}  // namespace dagsched
