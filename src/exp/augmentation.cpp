#include "exp/augmentation.h"

#include "util/check.h"

namespace dagsched {

AugmentationResult find_min_speed(const JobSet& jobs,
                                  const SchedulerFactory& factory,
                                  const AugmentationQuery& query) {
  DS_CHECK(query.target_fraction > 0.0 && query.target_fraction <= 1.0);
  DS_CHECK(query.speed_lo > 0.0 && query.speed_lo <= query.speed_hi);
  DS_CHECK(query.tolerance > 0.0);

  AugmentationResult result;
  auto fraction_at = [&](double speed) {
    RunConfig run = query.run;
    run.sim.speed = speed;
    auto scheduler = factory();
    ++result.evaluations;
    return run_workload(jobs, *scheduler, run).fraction;
  };

  // Does the upper endpoint even reach the target?
  const double at_hi = fraction_at(query.speed_hi);
  if (at_hi < query.target_fraction) {
    result.min_speed = query.speed_hi + 1.0;
    result.achieved = at_hi;
    return result;
  }
  // Maybe no augmentation is needed.
  const double at_lo = fraction_at(query.speed_lo);
  if (at_lo >= query.target_fraction) {
    result.min_speed = query.speed_lo;
    result.achieved = at_lo;
    return result;
  }

  double lo = query.speed_lo, hi = query.speed_hi;
  double hi_fraction = at_hi;
  while (hi - lo > query.tolerance) {
    const double mid = 0.5 * (lo + hi);
    const double fraction = fraction_at(mid);
    if (fraction >= query.target_fraction) {
      hi = mid;
      hi_fraction = fraction;
    } else {
      lo = mid;
    }
  }
  result.min_speed = hi;
  result.achieved = hi_fraction;
  return result;
}

}  // namespace dagsched
