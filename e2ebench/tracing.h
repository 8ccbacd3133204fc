// In-memory tracing for the file-to-report benchmark.
//
// Nothing inside the dagsched sources is instrumented.  Layer-boundary
// spans are recorded from the benchmark's own code around each call into a
// layer (Tracer / Tracer::Scope), and the two hot per-call boundaries -- the
// scheduler callbacks and the node selector -- are measured by forwarding
// wrappers that the engine drives in place of the real objects.  Per-call
// boundaries are aggregated in memory (calls + total ns, plus every decide()
// duration for percentiles) instead of storing a span per call.
//
// The wrappers must forward every virtual: a dropped one silently changes
// decisions (next_wakeup drives the slot engine's idle skipping).  The
// parity test in e2ebench_wrapper_test.cpp checks both the forwarding and
// that wrapped runs reproduce unwrapped SimResults and event logs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/node_selector.h"
#include "sim/scheduler.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One layer-boundary span: name, start, end and the enclosing span
/// (-1 for a root).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
};

/// Span recorder; spans stay in memory until the run prints them.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      index_ = tracer_.open(std::move(name));
    }
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  int open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of every span called `name`.
  double total(const std::string& name) const {
    double sum = 0.0;
    for (const Span& span : spans_) {
      if (span.name == name) sum += span.seconds();
    }
    return sum;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Aggregate of one per-call boundary.
struct CallStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;

  void add(std::int64_t ns) {
    ++calls;
    total_ns += ns;
  }
  double seconds() const { return static_cast<double>(total_ns) / 1e9; }
};

/// Nearest-rank percentile of `samples` (reordered in place); 0 if empty.
inline std::int64_t percentile_ns(std::vector<std::int64_t>& samples,
                                  double q) {
  if (samples.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

/// Forwarding SchedulerBase that times decide(), on_arrival() and the
/// other event callbacks of the scheduler it wraps.
class TracingScheduler final : public dagsched::SchedulerBase {
 public:
  explicit TracingScheduler(dagsched::SchedulerBase& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  bool clairvoyant() const override { return inner_.clairvoyant(); }
  void reset() override { inner_.reset(); }

  void on_arrival(const dagsched::EngineContext& ctx,
                  dagsched::JobId job) override {
    const std::int64_t start = now_ns();
    inner_.on_arrival(ctx, job);
    arrival_.add(now_ns() - start);
  }
  void on_completion(const dagsched::EngineContext& ctx,
                     dagsched::JobId job) override {
    const std::int64_t start = now_ns();
    inner_.on_completion(ctx, job);
    event_.add(now_ns() - start);
  }
  void on_deadline(const dagsched::EngineContext& ctx,
                   dagsched::JobId job) override {
    const std::int64_t start = now_ns();
    inner_.on_deadline(ctx, job);
    event_.add(now_ns() - start);
  }
  void on_capacity_change(const dagsched::EngineContext& ctx,
                          dagsched::ProcCount old_m,
                          dagsched::ProcCount new_m) override {
    const std::int64_t start = now_ns();
    inner_.on_capacity_change(ctx, old_m, new_m);
    event_.add(now_ns() - start);
  }
  dagsched::Time next_wakeup(
      const dagsched::EngineContext& ctx) const override {
    return inner_.next_wakeup(ctx);
  }
  void decide(const dagsched::EngineContext& ctx,
              dagsched::Assignment& out) override {
    const std::int64_t start = now_ns();
    inner_.decide(ctx, out);
    const std::int64_t elapsed = now_ns() - start;
    decide_.add(elapsed);
    decide_samples_.push_back(elapsed);
  }

  std::size_t arrival_precompute_size() const override {
    return inner_.arrival_precompute_size();
  }
  void precompute_arrival(const dagsched::Job& job, dagsched::JobId id,
                          double speed, void* out) const override {
    inner_.precompute_arrival(job, id, speed, out);
  }
  void save_state(dagsched::CheckpointWriter& out) const override {
    inner_.save_state(out);
  }
  void load_state(dagsched::CheckpointReader& in) override {
    inner_.load_state(in);
  }
  std::size_t shed_load(const dagsched::EngineContext& ctx,
                        std::size_t max_jobs) override {
    return inner_.shed_load(ctx, max_jobs);
  }
  std::size_t queue_depth() const override { return inner_.queue_depth(); }
  std::size_t memory_bytes() const override { return inner_.memory_bytes(); }

  const CallStats& decide_stats() const { return decide_; }
  const CallStats& arrival_stats() const { return arrival_; }
  const CallStats& event_stats() const { return event_; }
  const std::vector<std::int64_t>& decide_samples() const {
    return decide_samples_;
  }

 private:
  dagsched::SchedulerBase& inner_;
  CallStats decide_;
  CallStats arrival_;
  CallStats event_;
  std::vector<std::int64_t> decide_samples_;
};

/// Forwarding NodeSelector that times select().
class TracingSelector final : public dagsched::NodeSelector {
 public:
  explicit TracingSelector(dagsched::NodeSelector& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  void select(const dagsched::Dag& dag, const dagsched::UnfoldingState& state,
              std::size_t k, std::vector<dagsched::NodeId>& out) override {
    const std::int64_t start = now_ns();
    inner_.select(dag, state, k, out);
    select_.add(now_ns() - start);
  }

  const CallStats& stats() const { return select_; }

 private:
  dagsched::NodeSelector& inner_;
  CallStats select_;
};

}  // namespace e2ebench
