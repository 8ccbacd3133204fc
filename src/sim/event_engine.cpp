#include "sim/event_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/checkpoint/checkpoint.h"
#include "sim/kernel/kernel.h"
#include "util/check.h"

namespace dagsched {

EventEngine::EventEngine(const JobSet& jobs, SchedulerBase& scheduler,
                         NodeSelector& selector, SimOptions options)
    : jobs_(jobs),
      kernel_(std::make_unique<SimKernel>(jobs, scheduler, selector,
                                          std::move(options))) {}

EventEngine::~EventEngine() = default;

SimResult EventEngine::run() {
  if (jobs_.empty()) return SimResult{};
  SimKernel& kernel = *kernel_;
  const SimOptions& options = kernel.options();

  // The step-duration histogram is the one event-engine-specific instrument
  // (the slot engine's steps are unit slots by construction).
  const ObsSink* obs = options.obs;
  Histogram* h_step_dt = nullptr;
  if (obs != nullptr && obs->metrics != nullptr) {
    h_step_dt = obs->metrics->histogram("engine.step_dt");
  }
  ScopedSpan run_span(obs != nullptr ? obs->spans : nullptr, "engine.run");

  const double speed = options.speed;
  Time now = jobs_[0].release();
  kernel.begin(now);

  if (options.resume != nullptr) {
    // Restore the exact loop-top state the checkpoint captured; the run
    // continues as if it had never stopped (the decision log from here on
    // is byte-identical to the uninterrupted run's suffix).
    CheckpointReader kernel_in = options.resume->section_reader("kernel");
    CheckpointReader sched_in = options.resume->section_reader("scheduler");
    kernel.load_checkpoint_state(kernel_in, sched_in);
    now = options.resume->meta.sim_time;
    kernel.set_now(now);
    if (options.checkpoint != nullptr) {
      options.checkpoint->note_resumed(kernel.decisions());
    }
  }

  // Member scratch: capacity survives across runs, so a warm re-run of the
  // stepping loop below performs no heap allocations.
  Assignment& assignment = assignment_;

  for (;;) {
    // (0) Checkpoint at the loop top, before event delivery: nothing is
    // half-delivered here, so the snapshot plus the emitted-event count is
    // a complete resume point.
    if (options.checkpoint != nullptr &&
        options.checkpoint->due(kernel.decisions())) {
      options.checkpoint->write(kernel, now, 0);
    }

    // (1) Deliver everything due now -- processor transitions, arrivals,
    // deadline expiries -- in the kernel's pinned order, then obtain and
    // validate the allocation in force until the next event.
    kernel.deliver_due_events(now, DeadlineDuePolicy::kAtOrBeforeNow);
    if (!kernel.decide(now, assignment)) break;

    // (2) Materialize this interval's execution set and account its
    // preemptions against the previous interval (before this step's
    // completions, as the seed did), in one kernel pass.
    const Work min_remaining = kernel.begin_interval(now, assignment);

    // (3) Time to the next external event.
    const Time next_event =
        std::min(kernel.next_arrival_time(),
                 std::min(kernel.next_deadline_time(),
                          kernel.next_transition_time()));

    const std::size_t running = kernel.interval_nodes().size();
    if (running == 0) {
      kernel.end_interval();
      if (next_event == kTimeInfinity) break;  // quiescent: nothing left
      // The machine sits fully idle until the next event; transitions are
      // decision points, so capacity is constant across the gap.
      if (next_event > now) kernel.account_idle_gap(next_event - now);
      now = std::max(now, next_event);
      continue;
    }

    // The first node completion: dividing by a positive speed is monotone,
    // so min(remaining) / speed == min(remaining / speed) exactly.
    const Time dt = std::min(min_remaining / speed, next_event - now);
    DS_CHECK_MSG(dt > 0.0, "non-positive step dt=" << dt << " at t=" << now);

    kernel.observe_running(running);
    DS_OBS_OBSERVE(h_step_dt, dt);

    // (4) Advance every running node by speed*dt and mark the jobs that
    // finish at the end of the step, then retire the execution set as the
    // next decision's previous interval and notify the completions.
    kernel.advance_interval(speed * dt, now, dt);
    kernel.account_step_time(dt);
    now += dt;
    kernel.set_now(now);
    kernel.end_interval();
    kernel.notify_completions(now);
  }

  kernel.set_end_time(now);
  return kernel.finish();
}

SimResult simulate(const JobSet& jobs, SchedulerBase& scheduler,
                   NodeSelector& selector, const SimOptions& options) {
  return EventEngine(jobs, scheduler, selector, options).run();
}

}  // namespace dagsched
