#include "workload/workload_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "dag/builder.h"
#include "util/parse_error.h"
#include "util/parse_number.h"

namespace dagsched {

namespace {

constexpr const char* kMagic = "dagsched-workload";
constexpr int kVersion = 1;
// A lower bound on the bytes of one job record (the shortest possible one,
// "job 0", "profit step 1 1", "nodes 1", "1", "edges 0", "end", is 44).
constexpr std::size_t kMinJobBytes = 32;

/// Hands out the input one line at a time as a view into a fixed-size
/// block read straight from the stream buffer.  A line cut by the end of a
/// block is carried to the front of the next one; the buffer grows only for
/// a line longer than a whole block.  Lines are counted from 1.
class LineReader {
 public:
  explicit LineReader(std::istream& is)
      : in_(*is.rdbuf()), buffer_(kWorkloadBlockBytes) {}

  /// The next line without its '\n'; false at end of input.  The view is
  /// valid until the next call.
  bool next(std::string_view& line) {
    while (true) {
      const char* begin = buffer_.data() + begin_;
      const auto* newline =
          static_cast<const char*>(std::memchr(begin, '\n', end_ - begin_));
      if (newline != nullptr || (eof_ && begin_ < end_)) {
        const std::size_t length = newline != nullptr
                                       ? static_cast<std::size_t>(newline - begin)
                                       : end_ - begin_;
        line = std::string_view(begin, length);
        begin_ = std::min(end_, begin_ + length + 1);
        ++lineno_;
        return true;
      }
      if (eof_) return false;
      refill();
    }
  }

  /// The next line that is neither blank nor a '#' comment.
  bool next_content(std::string_view& line) {
    while (next(line)) {
      if (!is_comment_or_blank(line)) return true;
    }
    return false;
  }

  std::size_t lineno() const { return lineno_; }

  /// `count` capped by how many items of at least `min_bytes` bytes each
  /// the unread input could still hold, so a hostile count in the file
  /// cannot make a reserve() allocate more than the input justifies.
  std::size_t cap_by_input(std::size_t count, std::size_t min_bytes) {
    std::size_t cap = (end_ - begin_) / min_bytes;
    if (count > cap && !eof_) {
      const std::streamsize avail = in_.in_avail();
      if (avail > 0) cap += static_cast<std::size_t>(avail) / min_bytes;
    }
    return std::min(count, cap);
  }

  static bool is_comment_or_blank(std::string_view line) {
    const auto first = line.find_first_not_of(" \t\r");
    return first == std::string_view::npos || line[first] == '#';
  }

 private:
  void refill() {
    const std::size_t carry = end_ - begin_;
    std::memmove(buffer_.data(), buffer_.data() + begin_, carry);
    begin_ = 0;
    end_ = carry;
    if (carry == buffer_.size()) buffer_.resize(2 * buffer_.size());
    const std::streamsize got =
        in_.sgetn(buffer_.data() + end_,
                  static_cast<std::streamsize>(buffer_.size() - end_));
    if (got <= 0) {
      eof_ = true;
    } else {
      end_ += static_cast<std::size_t>(got);
    }
  }

  std::streambuf& in_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  // first unread byte
  std::size_t end_ = 0;    // one past the last buffered byte
  std::size_t lineno_ = 0;
  bool eof_ = false;
};

/// Whitespace-token cursor over one line, tracking the 1-based column of
/// each token so diagnostics can point at the offending field.
class LineParser {
 public:
  LineParser(const std::string& source, std::string_view line,
             std::size_t lineno)
      : source_(source), line_(line), lineno_(lineno) {}

  [[noreturn]] void fail(std::size_t column, const std::string& what) const {
    throw ParseError(source_, lineno_, column, what);
  }

  bool at_end() {
    skip_ws();
    return pos_ >= line_.size();
  }

  /// Column (1-based) where the next token would start.
  std::size_t next_column() {
    skip_ws();
    return pos_ + 1;
  }

  std::string_view token(const char* what) {
    skip_ws();
    if (pos_ >= line_.size()) fail(pos_ + 1, std::string("missing ") + what);
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_ws(line_[pos_])) ++pos_;
    return line_.substr(start, pos_ - start);
  }

  /// Parses a finite double; rejects NaN/inf and trailing junk.
  double number(const char* what) {
    const std::size_t column = next_column();
    const std::string_view tok = token(what);
    double value = 0.0;
    const NumberStatus status = parse_finite_double(tok, value);
    if (status != NumberStatus::kOk) {
      fail(column, number_diagnostic(status, what, tok));
    }
    return value;
  }

  /// Parses a non-negative integer (node ids, counts).
  std::size_t index(const char* what) {
    const std::size_t column = next_column();
    const std::string_view tok = token(what);
    for (const char c : tok) {
      if (c < '0' || c > '9') {
        fail(column, "bad " + std::string(what) + " '" + std::string(tok) +
                         "' (expected a non-negative integer)");
      }
    }
    std::size_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    if (ec != std::errc{}) {
      fail(column, std::string(what) + " '" + std::string(tok) +
                       "' out of range");
    }
    return value;
  }

  void expect_end() {
    if (!at_end()) {
      fail(pos_ + 1, "trailing junk '" + std::string(line_.substr(pos_)) +
                         "'");
    }
  }

  /// Bytes left on the line after the cursor.
  std::size_t remaining() const { return line_.size() - pos_; }

 private:
  static bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  void skip_ws() {
    while (pos_ < line_.size() && is_ws(line_[pos_])) ++pos_;
  }

  const std::string& source_;
  std::string_view line_;
  std::size_t lineno_;
  std::size_t pos_ = 0;
};

/// The job count from write_workload's "# N jobs" comment, or 0 when
/// `line` is any other comment.
std::size_t job_count_hint(std::string_view line) {
  if (line.substr(0, 2) != "# ") return 0;
  std::size_t count = 0;
  const char* end = line.data() + line.size();
  const auto [ptr, ec] = std::from_chars(line.data() + 2, end, count);
  if (ec != std::errc{}) return 0;
  const std::string_view rest(ptr, static_cast<std::size_t>(end - ptr));
  return rest == " jobs" || rest == " jobs\r" ? count : 0;
}

void write_profit(std::ostream& os, const ProfitFn& fn) {
  os << "profit ";
  if (fn.is_step()) {
    os << "step " << fn.peak() << ' ' << fn.deadline() << '\n';
  } else if (fn.support_end() == kTimeInfinity) {
    // Recover the exponential rate from one sample past the plateau.
    const Time probe = fn.plateau_end() + 1.0;
    const double rate = -std::log(fn.at(probe) / fn.peak());
    os << "plateau_exp " << fn.peak() << ' ' << fn.plateau_end() << ' '
       << rate << '\n';
  } else {
    // Distinguish linear from piecewise by sampling the midpoint.
    const Time mid = 0.5 * (fn.plateau_end() + fn.support_end());
    const double linear_value = fn.peak() * (fn.support_end() - mid) /
                                (fn.support_end() - fn.plateau_end());
    if (std::abs(fn.at(mid) - linear_value) < 1e-9 * fn.peak()) {
      os << "plateau_linear " << fn.peak() << ' ' << fn.plateau_end() << ' '
         << fn.support_end() << '\n';
    } else {
      // Piecewise staircase: enumerate the level changes by probing just
      // after each breakpoint is not possible generically -- instead, the
      // writer is only ever given ProfitFn values this library built, and
      // piecewise is the only remaining case; sample densely to recover
      // levels (exact because the staircase is right-continuous at its
      // breakpoints and breakpoints are the stored times).
      os << "piecewise";
      // Binary-search each level end over a dense grid.
      std::vector<std::pair<Time, Profit>> levels;
      Time t = 0.0;
      while (t < fn.support_end() + 1e-9) {
        const Profit value = fn.at(t);
        if (value <= 0.0) break;
        // Find the largest end with the same value.
        Time lo = t, hi = fn.support_end();
        while (hi - lo > 1e-9) {
          const Time mid2 = 0.5 * (lo + hi);
          if (std::abs(fn.at(mid2) - value) < 1e-12) {
            lo = mid2;
          } else {
            hi = mid2;
          }
        }
        levels.emplace_back(hi, value);
        t = hi + 1e-6;
      }
      os << ' ' << levels.size();
      for (const auto& [end, value] : levels) os << ' ' << end << ' ' << value;
      os << '\n';
    }
  }
}

ProfitFn read_profit(const std::string& source, std::string_view line,
                     std::size_t lineno) {
  LineParser in(source, line, lineno);
  const std::size_t kw_col = in.next_column();
  const std::string_view keyword = in.token("profit keyword");
  if (keyword != "profit") {
    in.fail(kw_col, "expected 'profit', got '" + std::string(keyword) + "'");
  }
  const std::size_t kind_col = in.next_column();
  const std::string_view kind = in.token("profit kind");
  if (kind == "step") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t d_col = in.next_column();
    const double d = in.number("deadline");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(d > 0.0)) in.fail(d_col, "deadline must be positive");
    in.expect_end();
    return ProfitFn::step(p, d);
  }
  if (kind == "plateau_linear") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t plateau_col = in.next_column();
    const double plateau = in.number("plateau end");
    const std::size_t zero_col = in.next_column();
    const double zero = in.number("zero point");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(plateau > 0.0)) in.fail(plateau_col, "plateau end must be positive");
    if (!(zero > plateau)) {
      in.fail(zero_col, "zero point must exceed the plateau end");
    }
    in.expect_end();
    return ProfitFn::plateau_linear(p, plateau, zero);
  }
  if (kind == "plateau_exp") {
    const std::size_t p_col = in.next_column();
    const double p = in.number("peak profit");
    const std::size_t plateau_col = in.next_column();
    const double plateau = in.number("plateau end");
    const std::size_t rate_col = in.next_column();
    const double rate = in.number("decay rate");
    if (!(p > 0.0)) in.fail(p_col, "peak profit must be positive");
    if (!(plateau > 0.0)) in.fail(plateau_col, "plateau end must be positive");
    if (!(rate > 0.0)) in.fail(rate_col, "decay rate must be positive");
    in.expect_end();
    return ProfitFn::plateau_exponential(p, plateau, rate);
  }
  if (kind == "piecewise") {
    const std::size_t count_col = in.next_column();
    const std::size_t count = in.index("piecewise level count");
    if (count == 0) in.fail(count_col, "piecewise level count must be >= 1");
    // Each level takes at least four bytes ("1 1 "); the cap keeps a
    // hostile count from reserving more than the line could hold.
    std::vector<std::pair<Time, Profit>> levels;
    levels.reserve(std::min(count, (in.remaining() + 1) / 4));
    Time prev_end = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t t_col = in.next_column();
      const Time t = in.number("piecewise level end");
      const std::size_t p_col = in.next_column();
      const Profit p = in.number("piecewise level profit");
      if (!(t > prev_end)) {
        in.fail(t_col, "piecewise level ends must be strictly increasing");
      }
      if (!(p > 0.0)) in.fail(p_col, "piecewise profit must be positive");
      if (!levels.empty() && p > levels.back().second) {
        in.fail(p_col, "piecewise level profits must not increase");
      }
      levels.emplace_back(t, p);
      prev_end = t;
    }
    in.expect_end();
    return ProfitFn::piecewise(std::move(levels));
  }
  in.fail(kind_col, "unknown profit kind '" + std::string(kind) + "'");
}

}  // namespace

void write_workload(std::ostream& os, const JobSet& jobs) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << kMagic << ' ' << kVersion << '\n';
  os << "# " << jobs.size() << " jobs\n";
  for (const Job& job : jobs.jobs()) {
    os << "job " << job.release() << '\n';
    write_profit(os, job.profit());
    const Dag& dag = job.dag();
    os << "nodes " << dag.num_nodes() << '\n';
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      os << (v == 0 ? "" : " ") << dag.node_work(v);
    }
    os << '\n';
    os << "edges " << dag.num_edges() << '\n';
    for (NodeId v = 0; v < dag.num_nodes(); ++v) {
      for (const NodeId succ : dag.successors(v)) {
        os << v << ' ' << succ << '\n';
      }
    }
    os << "end\n";
  }
}

JobSet read_workload(std::istream& is, const std::string& source) {
  LineReader reader(is);
  std::string_view line;
  // Reads the next content line or throws "missing <what>" one line past
  // the end of input.
  const auto require_line = [&](const char* missing) {
    if (!reader.next_content(line)) {
      throw ParseError(source, reader.lineno() + 1, 1,
                       std::string("missing ") + missing);
    }
    return LineParser(source, line, reader.lineno());
  };

  if (!reader.next_content(line)) {
    throw ParseError(source, 1, 1, "empty input");
  }
  {
    LineParser in(source, line, reader.lineno());
    const std::size_t magic_col = in.next_column();
    const std::string_view magic = in.token("header magic");
    if (magic != kMagic) {
      in.fail(magic_col, "bad header (expected '" + std::string(kMagic) +
                             " " + std::to_string(kVersion) + "')");
    }
    const std::size_t version_col = in.next_column();
    const std::size_t version = in.index("format version");
    if (version != static_cast<std::size_t>(kVersion)) {
      in.fail(version_col,
              "unsupported version " + std::to_string(version) +
                  " (expected " + std::to_string(kVersion) + ")");
    }
    in.expect_end();
  }

  // write_workload's "# N jobs" comment, if present before the first job,
  // pre-sizes the JobSet.
  JobSet jobs;
  bool more = false;
  while (!more && reader.next(line)) {
    if (!LineReader::is_comment_or_blank(line)) {
      more = true;
    } else if (const std::size_t hint = job_count_hint(line); hint > 0) {
      jobs.reserve(reader.cap_by_input(hint, kMinJobBytes));
    }
  }

  // One builder serves the whole file: each job empties it and keeps its
  // capacity, so only the Dag's own block is allocated per job.
  DagBuilder builder;
  for (; more; more = reader.next_content(line)) {
    builder.clear();
    LineParser job_in(source, line, reader.lineno());
    const std::size_t kw_col = job_in.next_column();
    const std::string_view keyword = job_in.token("job keyword");
    if (keyword != "job") {
      job_in.fail(kw_col, "expected 'job', got '" + std::string(keyword) +
                              "'");
    }
    const std::size_t release_col = job_in.next_column();
    const Time release = job_in.number("release time");
    if (release < 0.0) job_in.fail(release_col, "release time must be >= 0");
    job_in.expect_end();

    require_line("profit line");
    ProfitFn profit = read_profit(source, line, reader.lineno());

    std::size_t num_nodes = 0;
    {
      LineParser nodes_in = require_line("nodes line");
      const std::size_t nodes_kw_col = nodes_in.next_column();
      const std::string_view nodes_kw = nodes_in.token("nodes keyword");
      if (nodes_kw != "nodes") {
        nodes_in.fail(nodes_kw_col, "expected 'nodes', got '" +
                                        std::string(nodes_kw) + "'");
      }
      const std::size_t count_col = nodes_in.next_column();
      num_nodes = nodes_in.index("node count");
      if (num_nodes == 0) nodes_in.fail(count_col, "node count must be >= 1");
      nodes_in.expect_end();
    }
    {
      LineParser works_in = require_line("node works line");
      // Each work takes at least two bytes ("1 ").
      builder.reserve(std::min(num_nodes, (line.size() + 1) / 2));
      for (std::size_t i = 0; i < num_nodes; ++i) {
        const std::size_t work_col = works_in.next_column();
        const Work work = works_in.number("node work");
        if (!(work > 0.0)) {
          works_in.fail(work_col, "node work must be positive");
        }
        builder.add_node(work);
      }
      works_in.expect_end();
    }

    std::size_t num_edges = 0;
    {
      LineParser edges_in = require_line("edges line");
      const std::size_t edges_kw_col = edges_in.next_column();
      const std::string_view edges_kw = edges_in.token("edges keyword");
      if (edges_kw != "edges") {
        edges_in.fail(edges_kw_col, "expected 'edges', got '" +
                                        std::string(edges_kw) + "'");
      }
      num_edges = edges_in.index("edge count");
      edges_in.expect_end();
    }
    // Each edge line takes at least four bytes ("0 1\n").
    builder.reserve(num_nodes, reader.cap_by_input(num_edges, 4));
    for (std::size_t e = 0; e < num_edges; ++e) {
      LineParser edge_in = require_line("edge line");
      const std::size_t from_col = edge_in.next_column();
      const std::size_t from = edge_in.index("edge source");
      const std::size_t to_col = edge_in.next_column();
      const std::size_t to = edge_in.index("edge target");
      if (from >= num_nodes) {
        edge_in.fail(from_col, "edge source " + std::to_string(from) +
                                   " out of range (nodes: " +
                                   std::to_string(num_nodes) + ")");
      }
      if (to >= num_nodes) {
        edge_in.fail(to_col, "edge target " + std::to_string(to) +
                                 " out of range (nodes: " +
                                 std::to_string(num_nodes) + ")");
      }
      if (from == to) edge_in.fail(from_col, "self-edge");
      edge_in.expect_end();
      builder.add_edge(static_cast<NodeId>(from), static_cast<NodeId>(to));
    }

    LineParser end_in = require_line("'end'");
    const std::size_t end_col = end_in.next_column();
    const std::string_view end_kw = end_in.token("end keyword");
    if (end_kw != "end") {
      end_in.fail(end_col, "expected 'end', got '" + std::string(end_kw) +
                               "'");
    }
    end_in.expect_end();

    // DagBuilder::build() validates acyclicity and duplicate edges; wrap
    // its exception so the caller still gets a positioned diagnostic.
    try {
      jobs.add(Job(std::make_shared<const Dag>(builder.build()),
                   release, std::move(profit)));
    } catch (const std::invalid_argument& err) {
      throw ParseError(source, reader.lineno(), 1,
                       std::string("invalid DAG: ") + err.what());
    }
  }
  jobs.finalize();
  return jobs;
}

void save_workload(const std::string& path, const JobSet& jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_workload(out, jobs);
}

JobSet load_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_workload(in, path);
}

}  // namespace dagsched
