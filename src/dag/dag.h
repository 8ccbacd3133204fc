// Immutable DAG program representation.
//
// A job's program is a directed acyclic graph whose nodes are sequential
// chunks of work and whose edges are precedence constraints (the model of
// Cilk/OpenMP-style parallel programs used by the paper).  Derived metrics
// (total work W, span L, per-node bottom levels) are computed once at
// construction.
//
// Each Dag owns one exactly-sized heap block holding every column, in this
// order (n nodes, e edges, s sinks; offsets are 32-bit, so e < 2^32):
//
//   work          f64 x n       node processing times
//   bottom_level  f64 x n       longest path starting at the node
//   succ_off      u32 x (n+1)   CSR offsets into succ_flat
//   pred_off      u32 x (n+1)   CSR offsets into pred_flat
//   succ_flat     u32 x e       successors, ascending per node
//   pred_flat     u32 x e       predecessors, ascending per node
//   topo          u32 x n       Kahn order; its prefix is sources()
//   sinks         u32 x s       out-degree-0 nodes, ascending
//
// That is 28 bytes per node, 8 per edge and 4 per sink.  Instances are
// created through DagBuilder (builder.h) or the generators (generators.h),
// are immutable and move-only afterwards; runtime execution state lives in
// UnfoldingState (unfolding.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace dagsched {

class DagBuilder;

class Dag {
 public:
  Dag(Dag&& other) noexcept;
  Dag& operator=(Dag&& other) noexcept;
  Dag(const Dag&) = delete;
  Dag& operator=(const Dag&) = delete;
  ~Dag();

  /// Number of nodes. DAGs are non-empty.
  NodeId num_nodes() const { return num_nodes_; }

  std::size_t num_edges() const { return num_edges_; }

  /// Processing time of `node` on a unit-speed processor. Always > 0.
  Work node_work(NodeId node) const { return work_[node]; }

  std::span<const NodeId> successors(NodeId node) const {
    return {succ_flat_ + succ_off_[node],
            std::size_t{succ_off_[node + 1] - succ_off_[node]}};
  }

  std::span<const NodeId> predecessors(NodeId node) const {
    return {pred_flat_ + pred_off_[node],
            std::size_t{pred_off_[node + 1] - pred_off_[node]}};
  }

  NodeId in_degree(NodeId node) const {
    return pred_off_[node + 1] - pred_off_[node];
  }

  NodeId out_degree(NodeId node) const {
    return succ_off_[node + 1] - succ_off_[node];
  }

  /// Total work W = sum of node processing times.
  Work total_work() const { return total_work_; }

  /// Span (critical-path length) L = weight of the heaviest directed path.
  Work span() const { return span_; }

  /// Nodes with no predecessors, in id order; non-empty for any valid DAG.
  std::span<const NodeId> sources() const { return {topo_, num_sources_}; }

  /// Nodes with no successors, in id order.
  std::span<const NodeId> sinks() const { return {sinks_, num_sinks_}; }

  /// A topological order of all nodes: the sources in id order, then Kahn's
  /// FIFO order.
  std::span<const NodeId> topological_order() const {
    return {topo_, num_nodes_};
  }

  /// Longest-path weight of any path *starting* at `node`, inclusive of the
  /// node's own work ("bottom level").  max over sources == span().
  /// Used by critical-path-aware node-selection policies: a clairvoyant
  /// executor runs high-bottom-level nodes first; the Theorem-1 adversary
  /// runs low-bottom-level nodes first.
  Work bottom_level(NodeId node) const { return bottom_level_[node]; }

  /// Bytes this Dag owns: the object plus its block (telemetry and bench
  /// gauge; the shared_ptr control block is excluded).
  std::size_t memory_bytes() const {
    return sizeof(Dag) + block_bytes(num_nodes_, num_edges_, num_sinks_);
  }

 private:
  friend class DagBuilder;

  /// Allocates the block for `nodes` nodes, `edges` edges and `sinks` sinks
  /// and points every column into it; DagBuilder fills the columns.
  Dag(NodeId nodes, std::uint32_t edges, NodeId sinks);

  void swap(Dag& other) noexcept;

  static std::size_t block_bytes(std::size_t nodes, std::size_t edges,
                                 std::size_t sinks);

  Work* work_ = nullptr;  // block start; owns the block
  Work* bottom_level_ = nullptr;
  std::uint32_t* succ_off_ = nullptr;
  std::uint32_t* pred_off_ = nullptr;
  NodeId* succ_flat_ = nullptr;
  NodeId* pred_flat_ = nullptr;
  NodeId* topo_ = nullptr;
  NodeId* sinks_ = nullptr;
  NodeId num_nodes_ = 0;
  std::uint32_t num_edges_ = 0;
  NodeId num_sources_ = 0;
  NodeId num_sinks_ = 0;
  Work total_work_ = 0.0;
  Work span_ = 0.0;
};

/// Longest-path weight of any path *ending* at each node, inclusive of the
/// node's own work ("top level"), indexed by node id.  O(V + E); computed on
/// demand because only DOT export reads it.
std::vector<Work> top_levels(const Dag& dag);

}  // namespace dagsched
