// Instance analyzer and minimal-speed bisection.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "dag/generators.h"
#include "exp/augmentation.h"
#include "workload/analyzer.h"
#include "workload/scenarios.h"

namespace dagsched {
namespace {

std::shared_ptr<const Dag> share(Dag dag) {
  return std::make_shared<const Dag>(std::move(dag));
}

TEST(Analyzer, EmptyInstance) {
  const InstanceProfile profile = analyze_instance(JobSet{}, 4);
  EXPECT_EQ(profile.jobs, 0u);
}

TEST(Analyzer, HandComputedProfile) {
  JobSet jobs;
  // Chain: W = L = 4, D = 8, p = 2 -> slack = 8/4 = 2; parallelism 1.
  jobs.add(Job::with_deadline(share(make_chain(4, 1.0)), 0.0, 8.0, 2.0));
  // Block: W = 8, L = 1, D = 3, p = 4 -> m=4 greedy = 7/4+1 = 2.75;
  // slack = 3/2.75; parallelism 8.
  jobs.add(Job::with_deadline(share(make_parallel_block(8, 1.0)), 2.0, 3.0,
                              4.0));
  jobs.finalize();
  const InstanceProfile profile = analyze_instance(jobs, 4);
  EXPECT_EQ(profile.jobs, 2u);
  EXPECT_DOUBLE_EQ(profile.parallelism.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(profile.parallelism.quantile(1.0), 8.0);
  EXPECT_NEAR(profile.slack.quantile(1.0), 2.0, 1e-12);
  EXPECT_NEAR(profile.slack.quantile(0.0), 3.0 / 2.75, 1e-12);
  // Densities: 0.5 both -> spread 1.
  EXPECT_DOUBLE_EQ(profile.density_spread, 1.0);
  EXPECT_DOUBLE_EQ(profile.sequential_fraction, 0.5);
  EXPECT_DOUBLE_EQ(profile.feasible_fraction, 1.0);
  // Load: work 12 over window [0, 8] on 4 procs = 12/32.
  EXPECT_NEAR(profile.offered_load, 12.0 / 32.0, 1e-12);

  std::ostringstream oss;
  print_profile(oss, profile);
  EXPECT_NE(oss.str().find("jobs:"), std::string::npos);
  EXPECT_NE(oss.str().find("density spread"), std::string::npos);
}

TEST(Analyzer, DetectsThm2SlackViolations) {
  Rng rng(4);
  WorkloadConfig config = scenario_tight(0.5, 8);
  config.horizon = 60.0;
  const JobSet jobs = generate_workload(rng, config);
  const InstanceProfile profile = analyze_instance(jobs, 8);
  // Tight deadlines: slack near max(L, W/m)/greedy < 1+eps for parallel
  // jobs; at minimum it must be < 1.5.
  EXPECT_LT(profile.slack.quantile(0.0), 1.5);
}

TEST(Augmentation, FindsThresholdOnFig1) {
  // Fig-1 instance with deadline L: the adversarial threshold is 2 - 1/m,
  // but with the FIFO selector on a fig1 DAG (block nodes first in ready
  // order) completion also takes (W-L)/m + L, so the bisection should find
  // ~2 - 1/m as well.
  const ProcCount m = 4;
  auto dag = share(make_fig1_dag(m, 8, 1.0));
  JobSet jobs;
  jobs.add(Job::with_deadline(dag, 0.0, dag->span() * (1 + 1e-9), 1.0));
  jobs.finalize();

  AugmentationQuery query;
  query.target_fraction = 1.0;
  query.speed_lo = 1.0;
  query.speed_hi = 3.0;
  query.tolerance = 0.005;
  query.run.sim.num_procs = m;
  query.run.selector = SelectorKind::kAdversarial;
  const AugmentationResult result = find_min_speed(
      jobs, [] { return make_named_scheduler("fcfs"); }, query);
  EXPECT_NEAR(result.min_speed, 2.0 - 1.0 / m, 0.01);
  EXPECT_DOUBLE_EQ(result.achieved, 1.0);
  EXPECT_GT(result.evaluations, 5u);
}

TEST(Augmentation, ReportsUnreachableTarget) {
  // Impossible deadline: no speed below hi can reach it.
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_chain(100, 1.0)), 0.0, 5.0, 1.0));
  jobs.finalize();
  AugmentationQuery query;
  query.target_fraction = 1.0;
  query.speed_hi = 2.0;
  query.run.sim.num_procs = 4;
  const AugmentationResult result = find_min_speed(
      jobs, [] { return make_named_scheduler("edf"); }, query);
  EXPECT_GT(result.min_speed, 2.5);
  EXPECT_LT(result.achieved, 1.0);
}

TEST(Augmentation, NoAugmentationNeededForEasyInstance) {
  JobSet jobs;
  jobs.add(Job::with_deadline(share(make_single_node(1.0)), 0.0, 10.0, 1.0));
  jobs.finalize();
  AugmentationQuery query;
  query.target_fraction = 1.0;
  query.run.sim.num_procs = 1;
  const AugmentationResult result = find_min_speed(
      jobs, [] { return make_named_scheduler("edf"); }, query);
  EXPECT_DOUBLE_EQ(result.min_speed, 1.0);
}

}  // namespace
}  // namespace dagsched
