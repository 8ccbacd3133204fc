// Proven-bound constants: formulas, monotonicity, and domination of
// measured ratios.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/deadline_scheduler.h"
#include "exp/runner.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

TEST(ProvenBoundsTest, HandComputedAtEpsHalf) {
  // eps = 0.5, delta = 0.125, c = 17 (+tiny), b = sqrt(1.25/1.5), a = 6.
  const Params p = Params::from_epsilon(0.5);
  const ProvenBounds bounds = proven_bounds(p);
  const double window_term =
      1.25 / (0.125 * p.b * (1.0 - p.b));
  EXPECT_NEAR(bounds.opt_vs_started, 1.0 + 6.0 * p.c * window_term, 1e-6);
  EXPECT_NEAR(bounds.throughput_ratio,
              bounds.opt_vs_started / p.completion_fraction(), 1e-6);
  EXPECT_NEAR(bounds.profit_opt_vs_scheduled,
              1.0 + 12.0 * p.c * window_term, 1e-6);
  EXPECT_GT(bounds.profit_ratio, bounds.throughput_ratio);
}

TEST(ProvenBoundsTest, AllPositiveAcrossEpsilon) {
  for (const double eps : {0.1, 0.25, 0.5, 1.0, 2.0, 4.0}) {
    const ProvenBounds bounds = proven_bounds(Params::from_epsilon(eps));
    EXPECT_GT(bounds.completion_fraction, 0.0) << eps;
    EXPECT_GT(bounds.throughput_ratio, 1.0) << eps;
    EXPECT_GT(bounds.profit_ratio, bounds.throughput_ratio) << eps;
  }
}

TEST(ProvenBoundsTest, PolynomialBlowupAsEpsShrinks) {
  // The paper proves O(1/eps^6): halving eps should inflate the bound by
  // a large factor (at least 2^4 for the canonical parameterization).
  const double at_half = proven_bounds(Params::from_epsilon(0.5)).throughput_ratio;
  const double at_quarter =
      proven_bounds(Params::from_epsilon(0.25)).throughput_ratio;
  const double at_eighth =
      proven_bounds(Params::from_epsilon(0.125)).throughput_ratio;
  EXPECT_GT(at_quarter / at_half, 16.0);
  EXPECT_GT(at_eighth / at_quarter, 16.0);
  // ...and stays below the crude 1/eps^8 overshoot (sanity on the degree).
  EXPECT_LT(at_quarter / at_half, 300.0);
}

TEST(ProvenBoundsTest, DominatesMeasuredRatios) {
  // The measured (pessimistic, UB-based) ratio must sit far below the
  // proven worst case on benign random workloads.
  const double eps = 0.5;
  TrialConfig config;
  config.workload = scenario_thm2(eps, 1.0, 8);
  config.workload.horizon = 80.0;
  config.run.sim.num_procs = 8;
  config.trials = 3;
  config.with_opt = true;
  const TrialStats stats = run_trials(config, [eps] {
    return std::make_unique<DeadlineScheduler>(
        DeadlineSchedulerOptions{.params = Params::from_epsilon(eps)});
  });
  const ProvenBounds bounds = proven_bounds(Params::from_epsilon(eps));
  ASSERT_GT(stats.ratio_ub.count(), 0u);
  EXPECT_LT(stats.ratio_ub.max(), bounds.throughput_ratio);
}

}  // namespace
}  // namespace dagsched
