// Format-stability goldens: the checked-in sample files under data/ must
// keep parsing to exactly these values.  A format change that breaks
// existing user files fails here first.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/sweep/sweep.h"
#include "obs/event_log.h"
#include "workload/trace_import.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

// DAGSCHED_DATA_DIR is injected by tests/CMakeLists.txt.
const std::string kDataDir = DAGSCHED_DATA_DIR;

TEST(GoldenFiles, SampleWorkloadParsesToKnownValues) {
  const JobSet jobs = load_workload(kDataDir + "/sample.wl");
  ASSERT_EQ(jobs.size(), 4u);

  // Job 0: map-reduce-ish DAG, step profit.
  EXPECT_DOUBLE_EQ(jobs[0].release(), 0.0);
  EXPECT_DOUBLE_EQ(jobs[0].work(), 18.0);
  EXPECT_DOUBLE_EQ(jobs[0].span(), 6.0);
  EXPECT_TRUE(jobs[0].has_deadline());
  EXPECT_DOUBLE_EQ(jobs[0].relative_deadline(), 14.0);
  EXPECT_DOUBLE_EQ(jobs[0].peak_profit(), 10.0);

  // Job 1: single node, plateau+linear.
  EXPECT_DOUBLE_EQ(jobs[1].release(), 2.5);
  EXPECT_FALSE(jobs[1].has_deadline());
  EXPECT_DOUBLE_EQ(jobs[1].profit().plateau_end(), 8.0);
  EXPECT_DOUBLE_EQ(jobs[1].profit().support_end(), 20.0);
  EXPECT_DOUBLE_EQ(jobs[1].profit().at(14.0), 3.0);  // halfway down

  // Job 2: chain, exponential decay.
  EXPECT_DOUBLE_EQ(jobs[2].work(), 4.0);
  EXPECT_DOUBLE_EQ(jobs[2].span(), 4.0);
  EXPECT_EQ(jobs[2].profit().support_end(), kTimeInfinity);
  EXPECT_NEAR(jobs[2].profit().at(9.0), 2.0 * std::exp(-1.0), 1e-12);

  // Job 3: piecewise staircase.
  EXPECT_DOUBLE_EQ(jobs[3].peak_profit(), 9.0);
  EXPECT_DOUBLE_EQ(jobs[3].profit().at(2.0), 9.0);
  EXPECT_DOUBLE_EQ(jobs[3].profit().at(3.0), 4.0);
  EXPECT_DOUBLE_EQ(jobs[3].profit().at(10.0), 1.5);
  EXPECT_DOUBLE_EQ(jobs[3].profit().at(11.5), 0.0);
  EXPECT_DOUBLE_EQ(jobs[3].span(), 3.0);  // 0 -> 1 -> 3
}

TEST(GoldenFiles, SampleWorkloadRoundTrips) {
  const JobSet jobs = load_workload(kDataDir + "/sample.wl");
  std::stringstream buffer;
  write_workload(buffer, jobs);
  const JobSet again = read_workload(buffer);
  ASSERT_EQ(again.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(again[i].work(), jobs[i].work()) << i;
    EXPECT_DOUBLE_EQ(again[i].span(), jobs[i].span()) << i;
    for (double t = 0.0; t < 25.0; t += 1.3) {
      EXPECT_NEAR(again[i].profit().at(t), jobs[i].profit().at(t), 1e-12)
          << "job " << i << " t " << t;
    }
  }
}

TEST(GoldenFiles, SampleTraceParsesToKnownValues) {
  const JobSet jobs = load_trace_csv(kDataDir + "/sample_trace.csv");
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_DOUBLE_EQ(jobs[0].release(), 0.0);
  EXPECT_NEAR(jobs[0].work(), 20.0, 1e-9);
  EXPECT_NEAR(jobs[0].span(), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(jobs[0].peak_profit(), 2.5);
  EXPECT_NEAR(jobs[2].work(), 30.0, 1e-9);
  EXPECT_NEAR(jobs[2].span(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(jobs[3].release(), 6.0);
}

// Event-log goldens, written by the JsonValue-tree event writer before the
// direct writer replaced it: `dagsched run data/sample.wl --scheduler s
// --m 8 --events ...`, without faults and with the churn spec below.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct EventGolden {
  const char* file;
  const char* fault_spec;
};

// Without this, gtest prints the parameter as its raw bytes, i.e. the two
// pointers, and the test names listed by ctest change from run to run.
void PrintTo(const EventGolden& golden, std::ostream* os) { *os << golden.file; }

class GoldenEvents : public ::testing::TestWithParam<EventGolden> {};

TEST_P(GoldenEvents, SampleRunEmitsTheCheckedInLog) {
  const std::string golden = read_file(kDataDir + "/" + GetParam().file);
  ASSERT_FALSE(golden.empty());
  const JobSet jobs = load_workload(kDataDir + "/sample.wl");
  SweepCellSpec spec;
  spec.id = GetParam().file;
  spec.jobs = &jobs;
  spec.scheduler = "s";
  spec.m = 8;
  spec.fault_spec = GetParam().fault_spec;
  SweepOptions options;
  options.capture_events = true;
  const SweepCellResult result = run_sweep_cell(spec, options);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.events_jsonl, golden);
}

TEST_P(GoldenEvents, ParsedLogRewritesByteForByte) {
  const std::string golden = read_file(kDataDir + "/" + GetParam().file);
  std::istringstream in(golden);
  std::string error;
  const auto events = EventLog::parse_jsonl(in, &error);
  ASSERT_TRUE(events.has_value()) << error;
  std::ostringstream out;
  for (const DecisionEvent& event : *events) write_event_jsonl(out, event);
  EXPECT_EQ(out.str(), golden);
}

INSTANTIATE_TEST_SUITE_P(
    SampleRuns, GoldenEvents,
    ::testing::Values(
        EventGolden{"sample.events.jsonl", ""},
        EventGolden{"sample.churn.events.jsonl",
                    "mtbf=5,mttr=2,horizon=40,seed=7,min-procs=2,"
                    "restart=resume"}),
    [](const ::testing::TestParamInfo<EventGolden>& param_info) {
      return param_info.index == 0 ? std::string("none") : std::string("churn");
    });

}  // namespace
}  // namespace dagsched
