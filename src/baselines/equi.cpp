#include "baselines/equi.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"
#include "util/check.h"
#include "util/wire.h"

namespace dagsched {

EquiScheduler::EquiScheduler(EquiOptions options) : options_(options) {}

void EquiScheduler::reset() {
  overload_shed_.clear();
  candidates_.clear();
  next_unseen_ = 0;
}

void EquiScheduler::refresh_candidates(const EngineContext& ctx) {
  // Shed victims leave candidates_ in shed_load itself; the check here only
  // matters when the list is rebuilt after a restore.
  while (next_unseen_ < ctx.num_jobs() &&
         ctx.view(static_cast<JobId>(next_unseen_)).arrived()) {
    const auto job = static_cast<JobId>(next_unseen_++);
    if (overload_shed_.empty() || overload_shed_.count(job) == 0) {
      candidates_.push_back(job);
    }
  }
  const Time now = ctx.now();
  std::erase_if(candidates_, [&](JobId job) {
    const JobView view = ctx.view(job);
    return view.completed() ||
           (options_.drop_expired && view.deadline_unreachable(now));
  });
}

void EquiScheduler::decide(const EngineContext& ctx, Assignment& out) {
  refresh_candidates(ctx);
  shares_.clear();
  double total_weight = 0.0;
  for (const JobId job : candidates_) {
    const JobView view = ctx.view(job);
    if (view.ready_count() == 0) continue;
    const double weight =
        options_.weight_by_profit ? view.peak_profit() : 1.0;
    DS_CHECK(weight > 0.0);
    shares_.emplace_back(job, weight);
    total_weight += weight;
  }
  if (shares_.empty()) return;

  // Largest-remainder apportionment of m processors to weights, with every
  // job guaranteed at least consideration for leftovers (jobs may round to
  // zero; leftovers go to the largest fractional parts, ties by id).
  const double m = static_cast<double>(ctx.num_procs());
  const std::size_t n = shares_.size();
  fractional_.resize(n);
  grant_.resize(n);
  order_.resize(n);
  ProcCount assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double exact = m * shares_[i].second / total_weight;
    grant_[i] = static_cast<ProcCount>(std::floor(exact));
    fractional_[i] = exact - std::floor(exact);
    assigned += grant_[i];
    order_[i] = i;
  }
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    if (fractional_[a] != fractional_[b]) {
      return fractional_[a] > fractional_[b];
    }
    return shares_[a].first < shares_[b].first;
  });
  for (std::size_t rank = 0; rank < n && assigned < ctx.num_procs(); ++rank) {
    ++grant_[order_[rank]];
    ++assigned;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (grant_[i] >= 1) out.add(shares_[i].first, grant_[i]);
  }
}

std::size_t EquiScheduler::shed_load(const EngineContext& ctx,
                                     std::size_t max_jobs) {
  // candidates_ was pruned by the decide() at this same now(), so every
  // victim is a job the split would otherwise still serve -- shedding a
  // job decide() already ignores would free no capacity.
  std::size_t shed = 0;
  const ObsSink* obs = ctx.obs();
  while (shed < max_jobs) {
    auto victim = candidates_.end();
    double victim_weight = 0.0;
    for (auto it = candidates_.begin(); it != candidates_.end(); ++it) {
      const JobView view = ctx.view(*it);
      if (view.ready_count() == 0) continue;
      const double weight =
          options_.weight_by_profit ? view.peak_profit() : 1.0;
      // Lowest weight loses; ties shed the latest arrival (largest id).
      if (victim == candidates_.end() || weight <= victim_weight) {
        victim = it;
        victim_weight = weight;
      }
    }
    if (victim == candidates_.end()) break;
    const JobId job = *victim;
    candidates_.erase(victim);
    overload_shed_.insert(job);
    if (obs != nullptr) {
      obs->count("sched.drops.overload");
      obs->event(ctx.now(), job, ObsEventKind::kDrop, "overload.shed.share",
                 {{"weight", victim_weight}});
    }
    ++shed;
  }
  return shed;
}

void EquiScheduler::save_state(CheckpointWriter& out) const {
  out.u64(overload_shed_.size());
  for (const JobId job : overload_shed_) out.u32(job);
}

void EquiScheduler::load_state(CheckpointReader& in) {
  const std::uint64_t n = in.count(4);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!overload_shed_.insert(in.u32()).second) {
      in.fail("duplicate shed-set entry");
    }
  }
}

std::size_t EquiScheduler::memory_bytes() const {
  return candidates_.capacity() * sizeof(JobId) +
         shares_.capacity() * sizeof(std::pair<JobId, double>) +
         fractional_.capacity() * sizeof(double) +
         grant_.capacity() * sizeof(ProcCount) +
         order_.capacity() * sizeof(std::size_t);
}

}  // namespace dagsched
