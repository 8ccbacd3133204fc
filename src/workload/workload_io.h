// Plain-text (de)serialization of workloads, so experiment instances can be
// saved, diffed and shared.  Format (line-oriented, '#' comments):
//
//   dagsched-workload 1
//   job <release>
//   profit step <p> <D>
//        | plateau_linear <p> <plateau_end> <zero_at>
//        | plateau_exp <p> <plateau_end> <rate>
//        | piecewise <k> <t1> <p1> ... <tk> <pk>
//   nodes <n>
//   <w0> <w1> ... <w_{n-1}>
//   edges <e>
//   <u> <v>            (e lines)
//   end
//
// Numbers round-trip exactly (printed with max precision).  read_workload
// throws ParseError (util/parse_error.h, a std::runtime_error) with
// "source:line:column" positioning on malformed input; values are
// validated (finite, positive work, in-range edge endpoints, acyclic).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "job/job.h"

namespace dagsched {

/// read_workload reads its input in blocks of this many bytes, so it holds
/// one block (plus the longest line) rather than the whole file.
inline constexpr std::size_t kWorkloadBlockBytes = std::size_t{1} << 20;

void write_workload(std::ostream& os, const JobSet& jobs);
/// `source` names the input in diagnostics (file path or "<stream>").
JobSet read_workload(std::istream& is,
                     const std::string& source = "<stream>");

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_workload(const std::string& path, const JobSet& jobs);
JobSet load_workload(const std::string& path);

}  // namespace dagsched
