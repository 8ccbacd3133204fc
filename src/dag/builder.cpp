#include "dag/builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace dagsched {

void DagBuilder::reserve(std::size_t nodes, std::size_t edges) {
  work_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId DagBuilder::add_node(Work processing_time) {
  if (!(processing_time > 0.0)) {
    throw std::invalid_argument("node processing time must be > 0, got " +
                                std::to_string(processing_time));
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

Dag DagBuilder::build() && {
  if (work_.empty()) throw std::invalid_argument("DAG must be non-empty");

  // Sort and deduplicate edges; duplicates are rejected (they usually
  // indicate a generator bug and would skew in-degree bookkeeping).  Edges
  // read back from write_workload already arrive sorted.
  if (!std::is_sorted(edges_.begin(), edges_.end())) {
    std::sort(edges_.begin(), edges_.end());
  }
  const auto dup = std::adjacent_find(edges_.begin(), edges_.end());
  if (dup != edges_.end()) {
    throw std::invalid_argument("duplicate edge " + std::to_string(dup->first) +
                                "->" + std::to_string(dup->second));
  }

  Dag dag;
  const std::size_t n = work_.size();
  dag.work_ = std::move(work_);

  // Build CSR adjacency in both directions.
  dag.succ_off_.assign(n + 1, 0);
  dag.pred_off_.assign(n + 1, 0);
  for (const auto& [from, to] : edges_) {
    ++dag.succ_off_[from + 1];
    ++dag.pred_off_[to + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    dag.succ_off_[i + 1] += dag.succ_off_[i];
    dag.pred_off_[i + 1] += dag.pred_off_[i];
  }
  dag.succ_flat_.resize(edges_.size());
  dag.pred_flat_.resize(edges_.size());
  {
    std::vector<std::size_t> succ_cursor(dag.succ_off_.begin(),
                                         dag.succ_off_.end() - 1);
    std::vector<std::size_t> pred_cursor(dag.pred_off_.begin(),
                                         dag.pred_off_.end() - 1);
    for (const auto& [from, to] : edges_) {
      dag.succ_flat_[succ_cursor[from]++] = to;
      dag.pred_flat_[pred_cursor[to]++] = from;
    }
  }

  // Kahn topological sort; doubles as the acyclicity check.
  std::vector<NodeId> indegree(n);
  for (NodeId v = 0; v < n; ++v) indegree[v] = dag.in_degree(v);
  dag.topo_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    if (indegree[v] == 0) {
      dag.topo_.push_back(v);
      dag.sources_.push_back(v);
    }
  }
  for (std::size_t head = 0; head < dag.topo_.size(); ++head) {
    const NodeId u = dag.topo_[head];
    for (NodeId v : dag.successors(u)) {
      if (--indegree[v] == 0) dag.topo_.push_back(v);
    }
  }
  if (dag.topo_.size() != n) {
    throw std::invalid_argument("DAG contains a cycle");
  }

  for (NodeId v = 0; v < n; ++v) {
    if (dag.out_degree(v) == 0) dag.sinks_.push_back(v);
  }

  // Longest-path levels via one forward and one backward sweep of the
  // topological order; span and total work fall out of the same pass.
  dag.top_level_.assign(n, 0.0);
  dag.bottom_level_.assign(n, 0.0);
  dag.total_work_ = 0.0;
  for (NodeId v : dag.topo_) {
    Work longest_prefix = 0.0;
    for (NodeId u : dag.predecessors(v)) {
      longest_prefix = std::max(longest_prefix, dag.top_level_[u]);
    }
    dag.top_level_[v] = longest_prefix + dag.node_work(v);
    dag.total_work_ += dag.node_work(v);
  }
  for (auto it = dag.topo_.rbegin(); it != dag.topo_.rend(); ++it) {
    const NodeId v = *it;
    Work longest_suffix = 0.0;
    for (NodeId u : dag.successors(v)) {
      longest_suffix = std::max(longest_suffix, dag.bottom_level_[u]);
    }
    dag.bottom_level_[v] = longest_suffix + dag.node_work(v);
  }
  dag.span_ = 0.0;
  for (NodeId v : dag.sources_) {
    dag.span_ = std::max(dag.span_, dag.bottom_level_[v]);
  }
  DS_CHECK(dag.span_ > 0.0);
  DS_CHECK(dag.span_ <= dag.total_work_ + 1e-9);
  return dag;
}

}  // namespace dagsched
