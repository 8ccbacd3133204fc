#include "dag/builder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"

namespace dagsched {

void DagBuilder::reserve(std::size_t nodes, std::size_t edges) {
  work_.reserve(nodes);
  edges_.reserve(edges);
}

void DagBuilder::clear() {
  work_.clear();
  edges_.clear();
}

NodeId DagBuilder::add_node(Work processing_time) {
  if (!(processing_time > 0.0)) {
    throw std::invalid_argument("node processing time must be > 0, got " +
                                std::to_string(processing_time));
  }
  if (!std::isfinite(processing_time)) {
    throw std::invalid_argument("node processing time must be finite");
  }
  if (work_.size() >= std::numeric_limits<NodeId>::max()) {
    throw std::invalid_argument("too many nodes");
  }
  work_.push_back(processing_time);
  return static_cast<NodeId>(work_.size() - 1);
}

void DagBuilder::add_edge(NodeId from, NodeId to) {
  if (from >= work_.size() || to >= work_.size()) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (from == to) {
    throw std::invalid_argument("self-edge on node " + std::to_string(from));
  }
  // The Dag's CSR offsets are 32-bit.
  if (edges_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("too many edges");
  }
  edges_.emplace_back(from, to);
}

std::pair<NodeId, NodeId> DagBuilder::add_chain(std::size_t count,
                                                Work node_work) {
  if (count == 0) throw std::invalid_argument("add_chain: count must be > 0");
  const NodeId first = add_node(node_work);
  NodeId prev = first;
  for (std::size_t i = 1; i < count; ++i) {
    const NodeId next = add_node(node_work);
    add_edge(prev, next);
    prev = next;
  }
  return {first, prev};
}

Dag DagBuilder::build() {
  if (work_.empty()) throw std::invalid_argument("DAG must be non-empty");

  // Sort edges; duplicates are rejected (they usually indicate a generator
  // bug and would skew in-degree bookkeeping).  Edges read back from
  // write_workload already arrive sorted.  The same pass counts the nodes
  // with successors, which sizes the sinks column.
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    std::sort(edges_.begin(), edges_.end());
  }
  std::size_t with_successors = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (i > 0 && edges_[i] == edges_[i - 1]) {
      throw std::invalid_argument("duplicate edge " +
                                  std::to_string(edges_[i].first) + "->" +
                                  std::to_string(edges_[i].second));
    }
    if (i == 0 || edges_[i].first != edges_[i - 1].first) ++with_successors;
  }

  const auto n = static_cast<NodeId>(work_.size());
  Dag dag(n, static_cast<std::uint32_t>(edges_.size()),
          static_cast<NodeId>(n - with_successors));
  std::copy(work_.begin(), work_.end(), dag.work_);

  // CSR adjacency in both directions, in edge order.  The offset columns
  // double as the fill cursors: after the counting pass off[v + 1] is made
  // the start of v's range, and each placement bumps it, so it ends at the
  // start of v + 1's range.
  std::fill_n(dag.succ_off_, n + 1, 0u);
  std::fill_n(dag.pred_off_, n + 1, 0u);
  for (const auto& [from, to] : edges_) {
    ++dag.succ_off_[from + 1];
    ++dag.pred_off_[to + 1];
  }
  std::uint32_t succ_start = 0;
  std::uint32_t pred_start = 0;
  for (NodeId v = 0; v < n; ++v) {
    succ_start += std::exchange(dag.succ_off_[v + 1], succ_start);
    pred_start += std::exchange(dag.pred_off_[v + 1], pred_start);
  }
  for (const auto& [from, to] : edges_) {
    dag.succ_flat_[dag.succ_off_[from + 1]++] = to;
    dag.pred_flat_[dag.pred_off_[to + 1]++] = from;
  }

  // Kahn topological sort; doubles as the acyclicity check.  The sources
  // go first, in id order, and form the sources() prefix.  Until the
  // backward sweep below overwrites it, the bottom_level column holds each
  // node's remaining in-degree (a count, exact in a double).
  Work* const remaining_in = dag.bottom_level_;
  NodeId tail = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId in_degree = dag.in_degree(v);
    remaining_in[v] = in_degree;
    if (in_degree == 0) dag.topo_[tail++] = v;
  }
  dag.num_sources_ = tail;
  for (NodeId head = 0; head < tail; ++head) {
    for (NodeId v : dag.successors(dag.topo_[head])) {
      if (--remaining_in[v] == 0.0) dag.topo_[tail++] = v;
    }
  }
  if (tail != n) throw std::invalid_argument("DAG contains a cycle");

  NodeId sinks = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (dag.out_degree(v) == 0) dag.sinks_[sinks++] = v;
  }
  DS_CHECK(sinks == dag.num_sinks_);

  // Total work sums in topological order; bottom levels come from one
  // backward sweep of it, and the span is their maximum over the sources.
  dag.total_work_ = 0.0;
  for (NodeId v : dag.topological_order()) dag.total_work_ += dag.node_work(v);
  for (NodeId i = n; i-- > 0;) {
    const NodeId v = dag.topo_[i];
    Work longest_suffix = 0.0;
    for (NodeId u : dag.successors(v)) {
      longest_suffix = std::max(longest_suffix, dag.bottom_level_[u]);
    }
    dag.bottom_level_[v] = longest_suffix + dag.node_work(v);
  }
  dag.span_ = 0.0;
  for (NodeId v : dag.sources()) {
    dag.span_ = std::max(dag.span_, dag.bottom_level_[v]);
  }
  DS_CHECK(dag.span_ > 0.0);
  DS_CHECK(dag.span_ <= dag.total_work_ + 1e-9);
  return dag;
}

}  // namespace dagsched
