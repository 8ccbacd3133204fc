// Resource-augmentation search: the empirical counterpart of the paper's
// "s-speed c-competitive" statements.  Finds, by bisection, the minimum
// speed at which a scheduler reaches a target profit fraction (or a target
// fraction of the 1-speed OPT upper bound) on a given instance.
//
// Profit is monotone in speed for work-conserving policies and empirically
// near-monotone for S (admission is myopic); the search returns the
// smallest bisection endpoint whose run met the target, which is exact up
// to `tolerance` whenever monotonicity holds.
#pragma once

#include "exp/runner.h"

namespace dagsched {

struct AugmentationQuery {
  /// Target: fraction of total peak profit to reach (in (0, 1]).
  double target_fraction = 0.95;
  double speed_lo = 1.0;
  double speed_hi = 4.0;
  double tolerance = 0.01;
  RunConfig run;  // sim.speed is overwritten during the search
};

struct AugmentationResult {
  /// Smallest speed (within tolerance) reaching the target; speed_hi + 1
  /// if even speed_hi fails.
  double min_speed = 0.0;
  /// Fraction achieved at min_speed.
  double achieved = 0.0;
  std::size_t evaluations = 0;
};

AugmentationResult find_min_speed(const JobSet& jobs,
                                  const SchedulerFactory& factory,
                                  const AugmentationQuery& query);

}  // namespace dagsched
