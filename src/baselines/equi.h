// EQUI: fully non-clairvoyant equi-partitioning.
//
// The paper's conclusion asks whether *fully* non-clairvoyant algorithms
// (no knowledge of W_i or L_i at all -- not even the semi-non-clairvoyant
// hints) can be competitive.  EQUI is the canonical such policy: split the
// m processors evenly among active jobs (optionally weighting the split by
// profit, the one value a non-clairvoyant scheduler may still know).  This
// baseline probes the open question empirically: the gap between EQUI and
// S quantifies what knowing (W, L) buys.
//
// EQUI only reads release, profit, expiry and ready counts from JobView --
// never W, L or remaining work.
//
// Candidate list.  The kernel keeps expired-but-incomplete jobs in its
// active set for the whole run, so a decide() that walks ctx.active_jobs()
// rescans a pile that only grows (quadratic once many jobs expire).
// Instead decide() keeps its own arrival-ordered candidate list: the
// arrived jobs not yet completed, shed, or (with drop_expired) observed
// deadline-unreachable.  It relies on two invariants:
//   1. Job ids are arrival order (the kernel delivers jobs_[i] in index
//      order), so a watermark over ids appends new arrivals in exactly the
//      order ctx.active_jobs() would list them.
//   2. deadline_unreachable(now) is monotone in now (and completion and
//      shedding are permanent), so a job pruned once never needs to come
//      back.
// Shares are therefore summed over the same jobs in the same order as a
// full active-set scan, and every decision is bit-identical to it.  reset()
// zeroes the watermark, so the first decide() after a checkpoint restore
// rebuilds the list from every arrived job and prunes it in the same pass;
// nothing about the list is checkpointed.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace dagsched {

struct EquiOptions {
  /// Weight each job's share by its peak profit instead of equally.
  bool weight_by_profit = false;
  bool drop_expired = true;
};

class EquiScheduler final : public SchedulerBase {
 public:
  explicit EquiScheduler(EquiOptions options = {});

  std::string name() const override {
    return options_.weight_by_profit ? "equi(profit-weighted)" : "equi";
  }
  void reset() override;
  void decide(const EngineContext& ctx, Assignment& out) override;
  /// Overload shedding: EQUI has no committed allocations to revoke, so it
  /// excludes the lowest-weight runnable candidate (latest arrival on ties)
  /// from future splits.  Emits kDrop events with the `overload.shed.share`
  /// slug.
  std::size_t shed_load(const EngineContext& ctx,
                        std::size_t max_jobs) override;
  void save_state(CheckpointWriter& out) const override;
  void load_state(CheckpointReader& in) override;
  std::size_t queue_depth() const override { return candidates_.size(); }
  std::size_t memory_bytes() const override;

 private:
  /// Appends newly arrived jobs, then drops completed, shed and (with
  /// drop_expired) deadline-unreachable ones, keeping arrival order.
  void refresh_candidates(const EngineContext& ctx);

  EquiOptions options_;
  /// Jobs excluded from the split by shed_load (empty unless the overload
  /// budget fired, so the default path is untouched).
  std::set<JobId> overload_shed_;
  /// Arrival-ordered candidates (see the header comment).
  std::vector<JobId> candidates_;
  /// Next job id not yet appended to candidates_.
  std::size_t next_unseen_ = 0;

  // Per-decision work buffers, kept across calls so steady state is
  // heap-free.
  std::vector<std::pair<JobId, double>> shares_;
  std::vector<double> fractional_;
  std::vector<ProcCount> grant_;
  std::vector<std::size_t> order_;
};

}  // namespace dagsched
