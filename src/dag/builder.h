// Mutable construction interface for Dag.
//
// Usage:
//   DagBuilder b;
//   NodeId a = b.add_node(2.0);
//   NodeId c = b.add_node(1.5);
//   b.add_edge(a, c);
//   Dag dag = b.build();   // validates: acyclic, positive work
//   b.clear();             // ready for the next DAG; capacity is kept
//
// add_node/add_edge/build() throw std::invalid_argument on cycles,
// self-edges, duplicate edges, out-of-range endpoints, non-positive or
// non-finite node work, or counts past the 32-bit id and offset range.
// Disconnected DAGs are allowed (the paper's Figure-1 construction is a
// chain next to an independent block).  One builder reused through clear()
// builds the same DAGs as fresh builders, also after a build() that threw.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dag/dag.h"
#include "util/types.h"

namespace dagsched {

class DagBuilder {
 public:
  DagBuilder() = default;

  /// Reserve capacity for `nodes` nodes (optional optimization).
  void reserve(std::size_t nodes, std::size_t edges = 0);

  /// Empties the builder for the next DAG, keeping its capacity.
  void clear();

  /// Adds a node with the given finite processing time (> 0); returns its id.
  NodeId add_node(Work processing_time);

  /// Adds a precedence edge: `to` cannot start until `from` completes.
  void add_edge(NodeId from, NodeId to);

  /// Convenience: adds a chain of `count` nodes with `node_work` each,
  /// connected consecutively; returns (first, last) ids.
  std::pair<NodeId, NodeId> add_chain(std::size_t count, Work node_work);

  std::size_t num_nodes() const { return work_.size(); }

  /// Validates and produces the immutable Dag in one exactly-sized block.
  /// The builder keeps its nodes and its edges (sorted); clear() it before
  /// the next DAG.
  Dag build();

 private:
  std::vector<Work> work_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace dagsched
