#include "dag/dag.h"

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

// Dag is a passive data holder; all construction logic lives in DagBuilder
// and all execution logic in UnfoldingState.  This file owns the block.

namespace dagsched {

std::size_t Dag::block_bytes(std::size_t nodes, std::size_t edges,
                             std::size_t sinks) {
  return 2 * nodes * sizeof(Work) + 2 * (nodes + 1) * sizeof(std::uint32_t) +
         (2 * edges + nodes + sinks) * sizeof(NodeId);
}

Dag::Dag(NodeId nodes, std::uint32_t edges, NodeId sinks)
    : num_nodes_(nodes), num_edges_(edges), num_sinks_(sinks) {
  // The f64 columns come first, so every column is naturally aligned.
  auto* const block =
      static_cast<std::byte*>(::operator new(block_bytes(nodes, edges, sinks)));
  work_ = reinterpret_cast<Work*>(block);
  bottom_level_ = work_ + nodes;
  succ_off_ =
      reinterpret_cast<std::uint32_t*>(block + 2 * sizeof(Work) * nodes);
  pred_off_ = succ_off_ + nodes + 1;
  succ_flat_ = pred_off_ + nodes + 1;
  pred_flat_ = succ_flat_ + edges;
  topo_ = pred_flat_ + edges;
  sinks_ = topo_ + nodes;
}

Dag::Dag(Dag&& other) noexcept { swap(other); }

Dag& Dag::operator=(Dag&& other) noexcept {
  Dag taken(std::move(other));
  swap(taken);  // `taken` frees this Dag's old block
  return *this;
}

void Dag::swap(Dag& other) noexcept {
  std::swap(work_, other.work_);
  std::swap(bottom_level_, other.bottom_level_);
  std::swap(succ_off_, other.succ_off_);
  std::swap(pred_off_, other.pred_off_);
  std::swap(succ_flat_, other.succ_flat_);
  std::swap(pred_flat_, other.pred_flat_);
  std::swap(topo_, other.topo_);
  std::swap(sinks_, other.sinks_);
  std::swap(num_nodes_, other.num_nodes_);
  std::swap(num_edges_, other.num_edges_);
  std::swap(num_sources_, other.num_sources_);
  std::swap(num_sinks_, other.num_sinks_);
  std::swap(total_work_, other.total_work_);
  std::swap(span_, other.span_);
}

Dag::~Dag() { ::operator delete(work_); }

std::vector<Work> top_levels(const Dag& dag) {
  std::vector<Work> top(dag.num_nodes(), 0.0);
  for (NodeId v : dag.topological_order()) {
    Work longest_prefix = 0.0;
    for (NodeId u : dag.predecessors(v)) {
      longest_prefix = std::max(longest_prefix, top[u]);
    }
    top[v] = longest_prefix + dag.node_work(v);
  }
  return top;
}

}  // namespace dagsched
