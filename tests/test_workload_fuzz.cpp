// Corruption fuzz for the .wl reader and the .csv trace importer, in the
// style of CheckpointFuzz: every truncation, byte flip and hostile count or
// magnitude must either load or throw a positioned ParseError.  std::bad_alloc, any other exception or a crash
// fails the test (they propagate out of the loops below).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dag/builder.h"
#include "util/parse_error.h"
#include "util/rng.h"
#include "workload/scenarios.h"
#include "workload/trace_import.h"
#include "workload/workload_io.h"

namespace dagsched {
namespace {

const std::string kDataDir = DAGSCHED_DATA_DIR;

/// A small workload covering every profit kind: the sample file's four
/// jobs plus the first generated thm2 jobs.
std::string corpus_text() {
  const JobSet sample = load_workload(kDataDir + "/sample.wl");
  Rng rng(2017);
  const JobSet generated = generate_workload(rng, scenario_thm2(0.5, 0.8, 8));
  JobSet jobs;
  for (const Job& job : sample.jobs()) jobs.add(job);
  for (std::size_t i = 0; i < 8 && i < generated.size(); ++i) {
    jobs.add(generated[i]);
  }
  jobs.finalize();
  std::ostringstream out;
  write_workload(out, jobs);
  return out.str();
}

/// Outcome of reading `text`: the job count, or -1 for a ParseError.
long long read_or_diagnose(const std::string& text) {
  std::istringstream in(text);
  try {
    return static_cast<long long>(read_workload(in, "<fuzz>").size());
  } catch (const ParseError& error) {
    EXPECT_EQ(error.source(), "<fuzz>");
    EXPECT_GE(error.line(), 1u);
    EXPECT_GE(error.column(), 1u);
    return -1;
  }
}

TEST(WorkloadFuzz, EveryLineTruncationLoadsOrIsPositioned) {
  const std::string text = corpus_text();
  std::size_t jobs_seen = 0;
  std::size_t loaded = 0;
  for (std::size_t end = 0; end <= text.size(); ++end) {
    if (end != text.size() && text[end] != '\n') continue;
    const std::string prefix = text.substr(0, end);
    const long long jobs = read_or_diagnose(prefix);
    if (jobs >= 0) {
      ++loaded;
      // A prefix only loads when it ends right after a job's "end" line.
      EXPECT_GE(static_cast<std::size_t>(jobs), jobs_seen) << "at " << end;
      jobs_seen = static_cast<std::size_t>(jobs);
    }
  }
  EXPECT_EQ(jobs_seen, 12u);
  EXPECT_GE(loaded, 13u);  // the header alone, then after each "end"
}

TEST(WorkloadFuzz, SeededByteFlipsLoadOrArePositioned) {
  const std::string text = corpus_text();
  const char interesting[] = {'\n', ' ', '-', '+', '.', 'e', '9', '0',
                              '#',  'x', '\0', '\r'};
  Rng rng(12);
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = text;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      if (rng.bernoulli(0.5)) {
        mutated[pos] = interesting[rng.uniform_int(0, sizeof(interesting) - 1)];
      } else {
        mutated[pos] = static_cast<char>(mutated[pos] ^
                                         (1 << rng.uniform_int(0, 7)));
      }
    }
    if (read_or_diagnose(mutated) >= 0) {
      ++loaded;  // e.g. a flipped low digit of a node work
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(WorkloadFuzz, HostileCountsArePositionedNotAllocated) {
  const std::string head = "dagsched-workload 1\njob 0\nprofit step 2 10\n";
  const struct {
    std::string text;
    std::size_t line;
    std::size_t column;
  } cases[] = {
      {head + "nodes 99999999999999\n1 2\nedges 0\nend\n", 5, 4},
      {head + "nodes 18446744073709551615\n1\nedges 0\nend\n", 5, 2},
      {head + "nodes 18446744073709551616\n1\nedges 0\nend\n", 4, 7},
      {head + "nodes 2\n1 2\nedges 99999999999999\n0 1\nend\n", 8, 1},
      {head + "nodes 2\n1 2\nedges 18446744073709551615\n0 1\n", 8, 1},
      {"dagsched-workload 1\njob 0\nprofit piecewise 99999999999999 1 2\n",
       3, 36},
      // Found by the byte flips: ProfitFn::piecewise rejects increasing
      // levels with std::invalid_argument, so the reader checks first.
      {"dagsched-workload 1\njob 0\nprofit piecewise 2 1 1 2 5\n", 3, 26},
  };
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    try {
      read_workload(in, "<fuzz>");
      ADD_FAILURE() << "loaded:\n" << c.text;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.line(), c.line) << c.text << error.what();
      EXPECT_EQ(error.column(), c.column) << c.text << error.what();
    }
  }
}

TEST(WorkloadFuzz, HostileJobCountHeaderIsOnlyAHint) {
  for (const char* count : {"99999999999999", "18446744073709551615",
                            "18446744073709551616", "0", "-5", "7x"}) {
    const std::string text = std::string("dagsched-workload 1\n# ") + count +
                             " jobs\njob 0\nprofit step 2 10\nnodes 1\n1\n"
                             "edges 0\nend\n";
    EXPECT_EQ(read_or_diagnose(text), 1) << count;
  }
}

/// One job whose node works line is `works`.
std::string one_job(const std::string& works, std::size_t nodes) {
  return "job 0\nprofit step 2 10\nnodes " + std::to_string(nodes) + "\n" +
         works + "\nedges 0\nend\n";
}

TEST(WorkloadFuzz, LineStraddlingTheBlockBoundary) {
  // Pad with a comment so that the token "1.25" of the works line spans
  // the first block boundary, for each of its split points.
  for (std::size_t split = 0; split <= 4; ++split) {
    const std::string header = "dagsched-workload 1\n";
    const std::string works_prefix = "3 ";
    const std::string job_head = "job 0\nprofit step 2 10\nnodes 3\n";
    const std::size_t fixed =
        header.size() + 2 /* "# " */ + 1 /* "\n" */ + job_head.size() +
        works_prefix.size();
    const std::string comment(kWorkloadBlockBytes - fixed - split, 'c');
    const std::string text = header + "# " + comment + "\n" + job_head +
                             works_prefix + "1.25 7\nedges 2\n0 1\n1 2\nend\n";
    ASSERT_EQ(text.substr(kWorkloadBlockBytes - split, 4),
              std::string("1.25").substr(0, 4))
        << split;
    std::istringstream in(text);
    const JobSet jobs = read_workload(in, "<fuzz>");
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].dag().node_work(1), 1.25) << split;
    EXPECT_EQ(jobs[0].work(), 11.25) << split;
    EXPECT_EQ(jobs[0].span(), 11.25) << split;
  }
}

TEST(WorkloadFuzz, LineLongerThanTwoBlocksLoadsFromStreamAndFile) {
  // 600k works of "0.5 " make one 2.4 MB line, so the reader must grow
  // its buffer past a block; the file path must agree with the stream.
  const std::size_t nodes = 600000;
  std::string works;
  works.reserve(4 * nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    works += i == 0 ? "0.5" : " 0.5";
  }
  ASSERT_GT(works.size(), 2 * kWorkloadBlockBytes);
  const std::string text =
      "dagsched-workload 1\n" + one_job(works, nodes) + one_job("2", 1);
  std::istringstream in(text);
  const JobSet from_stream = read_workload(in, "<fuzz>");
  ASSERT_EQ(from_stream.size(), 2u);
  EXPECT_EQ(from_stream[0].dag().num_nodes(), nodes);
  EXPECT_EQ(from_stream[0].work(), 0.5 * static_cast<double>(nodes));
  EXPECT_EQ(from_stream[1].work(), 2.0);

  const std::string path = ::testing::TempDir() + "workload_fuzz_long.wl";
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  const JobSet from_file = load_workload(path);
  std::remove(path.c_str());
  ASSERT_EQ(from_file.size(), 2u);
  EXPECT_EQ(from_file[0].work(), from_stream[0].work());
  EXPECT_EQ(from_file[1].work(), from_stream[1].work());
}

// ---- .csv trace importer ----------------------------------------------------

/// A trace of the first generated thm2 jobs, as export_trace_csv writes it.
std::string csv_corpus_text() {
  Rng rng(2017);
  const JobSet generated = generate_workload(rng, scenario_thm2(0.5, 0.8, 8));
  JobSet jobs;
  for (std::size_t i = 0; i < 10 && i < generated.size(); ++i) {
    jobs.add(generated[i]);
  }
  jobs.finalize();
  std::ostringstream out;
  export_trace_csv(out, jobs);
  return out.str();
}

/// Outcome of importing `text`: the job count, or -1 for a ParseError.
long long import_or_diagnose(const std::string& text) {
  std::istringstream in(text);
  try {
    return static_cast<long long>(import_trace_csv(in, {}, "<fuzz>").size());
  } catch (const ParseError& error) {
    EXPECT_EQ(error.source(), "<fuzz>");
    EXPECT_GE(error.line(), 1u);
    EXPECT_GE(error.column(), 1u);
    return -1;
  }
}

TEST(TraceImportFuzz, EveryTruncationLoadsOrIsPositioned) {
  const std::string text = csv_corpus_text();
  std::size_t loaded = 0, rejected = 0;
  long long last_full = 0;
  for (std::size_t end = 0; end <= text.size(); ++end) {
    const long long jobs = import_or_diagnose(text.substr(0, end));
    if (jobs < 0) {
      ++rejected;
      continue;
    }
    ++loaded;
    if (end > 0 && text[end - 1] == '\n') {
      EXPECT_GE(jobs, last_full) << "at " << end;
      last_full = jobs;
    }
  }
  EXPECT_EQ(last_full, 10);
  EXPECT_GT(loaded, 10u);
  EXPECT_GT(rejected, 0u);  // the empty input and cut-off headers
}

TEST(TraceImportFuzz, SeededByteFlipsLoadOrArePositioned) {
  const std::string text = csv_corpus_text();
  const char interesting[] = {'\n', ',', '-', '+', '.', 'e', '9', '0',
                              ' ',  'x', '\0', '\r', '"'};
  Rng rng(16);
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = text;
    const int flips = static_cast<int>(rng.uniform_int(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      if (rng.bernoulli(0.5)) {
        mutated[pos] = interesting[rng.uniform_int(0, sizeof(interesting) - 1)];
      } else {
        mutated[pos] = static_cast<char>(mutated[pos] ^
                                         (1 << rng.uniform_int(0, 7)));
      }
    }
    if (import_or_diagnose(mutated) >= 0) {
      ++loaded;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TraceImportFuzz, HostileMagnitudesArePositionedNotAllocated) {
  // Each row's (work, span) would synthesize far more nodes than a job may
  // have; before the bound, the first two exhausted memory and the last
  // never finished (the remainder stops shrinking once work / node
  // exceeds 2^53).
  const std::string head = "release,work,span,deadline,profit\n";
  const struct {
    std::string row;
    std::size_t column;
  } cases[] = {
      {"0,1e15,1e15,1e16,1\n", 3},
      {"0,1e12,1,1e13,1\n", 3},
      {"0,1e300,0.5,1,1\n", 3},
      {"0, 5e7 ,2,1,1\n", 4},
  };
  for (const auto& c : cases) {
    std::istringstream in(head + c.row);
    try {
      import_trace_csv(in, {}, "<fuzz>");
      ADD_FAILURE() << "loaded: " << c.row;
    } catch (const ParseError& error) {
      EXPECT_EQ(error.line(), 2u) << c.row << error.what();
      EXPECT_EQ(error.column(), c.column) << c.row << error.what();
    }
  }
  // At the bound itself the row still loads.
  std::istringstream in(head + "0,1048576,1,2e6,1\n");
  EXPECT_EQ(import_trace_csv(in, {}, "<fuzz>")[0].dag().num_nodes(),
            kMaxTraceJobNodes);
}

}  // namespace
}  // namespace dagsched
