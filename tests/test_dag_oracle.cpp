// Independent oracle for the Dag layout: every accessor is recomputed
// straight from the edge list, with no CSR, and compared exactly.
//
// The DAGs come from every generator family and from random edge lists fed
// to the builder in shuffled (unsorted) order over permuted node ids.  The
// same inputs also go through one reused, cleared builder, which must build
// the same DAGs as fresh builders, including after a build() that threw.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dag/builder.h"
#include "dag/dag.h"
#include "dag/generators.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace dagsched {
namespace {

using Edge = std::pair<NodeId, NodeId>;

struct EdgeListDag {
  std::vector<Work> works;
  std::vector<Edge> edges;  // insertion order, as fed to the builder
};

// The reference: each accessor recomputed by scanning the edge list.
struct Reference {
  std::vector<std::vector<NodeId>> succ, pred;
  std::vector<NodeId> topo, sources, sinks;
  std::vector<Work> bottom, top;
  Work total_work = 0.0;
  Work span = 0.0;
};

Reference reference_of(const EdgeListDag& in) {
  const std::size_t n = in.works.size();
  Reference ref;
  ref.succ.resize(n);
  ref.pred.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& [from, to] : in.edges) {
      if (from == v) ref.succ[v].push_back(to);
      if (to == v) ref.pred[v].push_back(from);
    }
    std::sort(ref.succ[v].begin(), ref.succ[v].end());
    std::sort(ref.pred[v].begin(), ref.pred[v].end());
  }
  for (NodeId v = 0; v < n; ++v) {
    if (ref.pred[v].empty()) ref.sources.push_back(v);
    if (ref.succ[v].empty()) ref.sinks.push_back(v);
  }
  // Kahn with a FIFO queue seeded by the sources in id order; successors
  // are released in ascending id order.
  std::vector<std::size_t> indegree(n);
  for (NodeId v = 0; v < n; ++v) indegree[v] = ref.pred[v].size();
  std::deque<NodeId> queue(ref.sources.begin(), ref.sources.end());
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    ref.topo.push_back(u);
    for (NodeId v : ref.succ[u]) {
      if (--indegree[v] == 0) queue.push_back(v);
    }
  }
  for (NodeId v : ref.topo) ref.total_work += in.works[v];
  // Longest paths by repeated relaxation until nothing changes (no
  // topological order needed).
  ref.bottom.assign(n, 0.0);
  ref.top.assign(n, 0.0);
  for (bool changed = true; changed;) {
    changed = false;
    for (NodeId v = 0; v < n; ++v) {
      Work below = 0.0;
      for (NodeId u : ref.succ[v]) below = std::max(below, ref.bottom[u]);
      Work above = 0.0;
      for (NodeId u : ref.pred[v]) above = std::max(above, ref.top[u]);
      if (below + in.works[v] != ref.bottom[v] ||
          above + in.works[v] != ref.top[v]) {
        ref.bottom[v] = below + in.works[v];
        ref.top[v] = above + in.works[v];
        changed = true;
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) ref.span = std::max(ref.span, ref.bottom[v]);
  return ref;
}

template <typename Range>
std::vector<NodeId> to_vector(const Range& range) {
  return {range.begin(), range.end()};
}

void expect_matches_reference(const Dag& dag, const EdgeListDag& in) {
  const Reference ref = reference_of(in);
  ASSERT_EQ(ref.topo.size(), in.works.size()) << "input has a cycle";
  ASSERT_EQ(dag.num_nodes(), in.works.size());
  EXPECT_EQ(dag.num_edges(), in.edges.size());
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    EXPECT_EQ(dag.node_work(v), in.works[v]) << "node " << v;
    EXPECT_EQ(to_vector(dag.successors(v)), ref.succ[v]) << "node " << v;
    EXPECT_EQ(to_vector(dag.predecessors(v)), ref.pred[v]) << "node " << v;
    EXPECT_EQ(dag.out_degree(v), ref.succ[v].size()) << "node " << v;
    EXPECT_EQ(dag.in_degree(v), ref.pred[v].size()) << "node " << v;
    EXPECT_EQ(dag.bottom_level(v), ref.bottom[v]) << "node " << v;
  }
  EXPECT_EQ(to_vector(dag.topological_order()), ref.topo);
  EXPECT_EQ(to_vector(dag.sources()), ref.sources);
  EXPECT_EQ(to_vector(dag.sinks()), ref.sinks);
  EXPECT_EQ(top_levels(dag), ref.top);
  EXPECT_EQ(dag.total_work(), ref.total_work);
  EXPECT_EQ(dag.span(), ref.span);
}

void expect_same_dag(const Dag& a, const Dag& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.node_work(v), b.node_work(v));
    EXPECT_EQ(to_vector(a.successors(v)), to_vector(b.successors(v)));
    EXPECT_EQ(to_vector(a.predecessors(v)), to_vector(b.predecessors(v)));
    EXPECT_EQ(a.bottom_level(v), b.bottom_level(v));
  }
  EXPECT_EQ(to_vector(a.topological_order()), to_vector(b.topological_order()));
  EXPECT_EQ(to_vector(a.sources()), to_vector(b.sources()));
  EXPECT_EQ(to_vector(a.sinks()), to_vector(b.sinks()));
  EXPECT_EQ(a.total_work(), b.total_work());
  EXPECT_EQ(a.span(), b.span());
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
}

Dag build_from(DagBuilder& builder, const EdgeListDag& in) {
  for (Work w : in.works) builder.add_node(w);
  for (const auto& [from, to] : in.edges) builder.add_edge(from, to);
  return builder.build();
}

Dag build_fresh(const EdgeListDag& in) {
  DagBuilder builder;
  return build_from(builder, in);
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

// The edge list of a generated DAG, read back through successors() and
// cross-checked against predecessors() (the transpose) before use.
EdgeListDag edges_of(const Dag& dag) {
  EdgeListDag out;
  std::vector<Edge> transposed;
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    out.works.push_back(dag.node_work(v));
    for (NodeId s : dag.successors(v)) out.edges.emplace_back(v, s);
    for (NodeId p : dag.predecessors(v)) transposed.emplace_back(p, v);
  }
  std::sort(transposed.begin(), transposed.end());
  EXPECT_EQ(out.edges, transposed);
  return out;
}

// A random DAG over a random permutation of node ids (so ids are not a
// topological order), with its edges in shuffled order.
EdgeListDag random_edge_list(Rng& rng) {
  EdgeListDag out;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
  const double density = rng.uniform(0.0, 0.4);
  for (std::size_t i = 0; i < n; ++i) out.works.push_back(rng.uniform(0.1, 4));
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  shuffle(order, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) out.edges.emplace_back(order[i], order[j]);
    }
  }
  shuffle(out.edges, rng);
  return out;
}

// Every family, through the builder path the workload generator uses.
std::vector<Dag> generated_dags() {
  std::vector<Dag> dags;
  constexpr DagFamily kFamilies[] = {
      DagFamily::kChain,          DagFamily::kParallelBlock,
      DagFamily::kForkJoin,       DagFamily::kLayered,
      DagFamily::kSeriesParallel, DagFamily::kRandom,
      DagFamily::kMixed,          DagFamily::kWavefront,
      DagFamily::kStencil,        DagFamily::kMapReduce};
  Rng rng(0xDA60);
  for (DagFamily family : kFamilies) {
    for (int i = 0; i < 60; ++i) {
      const double scale = (i % 3 == 0) ? 0.25 : (i % 3 == 1) ? 1.0 : 1.5;
      dags.push_back(sample_dag(rng, family, scale));
    }
  }
  dags.push_back(make_single_node(2.5));
  dags.push_back(make_fig1_dag(4, 5, 1.0));
  dags.push_back(make_fig2_dag(6, 9, 0.5));
  return dags;
}

TEST(DagOracle, GeneratedFamiliesMatchTheEdgeListReference) {
  const std::vector<Dag> dags = generated_dags();
  ASSERT_GE(dags.size(), 600u);
  Rng rng(7);
  for (std::size_t i = 0; i < dags.size(); ++i) {
    SCOPED_TRACE(i);
    EdgeListDag in = edges_of(dags[i]);
    expect_matches_reference(dags[i], in);
    // The same DAG rebuilt from its shuffled edge list is the same DAG.
    shuffle(in.edges, rng);
    expect_same_dag(build_fresh(in), dags[i]);
  }
}

TEST(DagOracle, ShuffledEdgeListsMatchTheReference) {
  Rng rng(0x5EED);
  for (int i = 0; i < 500; ++i) {
    SCOPED_TRACE(i);
    const EdgeListDag in = random_edge_list(rng);
    expect_matches_reference(build_fresh(in), in);
  }
}

TEST(DagOracle, ReusedBuilderMatchesFreshBuilders) {
  Rng rng(0xB11D);
  DagBuilder reused;
  int threw = 0;
  for (int i = 0; i < 400; ++i) {
    SCOPED_TRACE(i);
    const EdgeListDag in = random_edge_list(rng);
    // Every third round first feeds the reused builder a bad variant of the
    // input, a back edge closing a cycle or a duplicate edge, and lets its
    // build() throw.
    if (i % 3 == 0 && !in.edges.empty()) {
      EdgeListDag bad = in;
      const Edge e = bad.edges[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bad.edges.size()) - 1))];
      bad.edges.push_back(i % 2 == 0 ? Edge{e.second, e.first} : e);
      shuffle(bad.edges, rng);
      EXPECT_THROW(build_from(reused, bad), std::invalid_argument);
      ++threw;
      reused.clear();
    }
    const Dag from_reused = build_from(reused, in);
    reused.clear();
    const Dag fresh = build_fresh(in);
    expect_same_dag(from_reused, fresh);
    expect_matches_reference(from_reused, in);
  }
  EXPECT_GT(threw, 100);
}

TEST(DagOracle, MovedDagKeepsItsBlock) {
  Rng rng(11);
  EdgeListDag in;
  while (in.edges.empty()) in = random_edge_list(rng);
  Dag original = build_fresh(in);
  const std::size_t bytes = original.memory_bytes();
  Dag moved(std::move(original));
  expect_matches_reference(moved, in);
  Dag assigned = build_fresh({{1.0}, {}});
  assigned = std::move(moved);
  expect_matches_reference(assigned, in);
  EXPECT_EQ(assigned.memory_bytes(), bytes);
  // 28 bytes per node, 8 per edge, 4 per sink, plus the object and the
  // closing offset of each CSR direction.
  EXPECT_EQ(bytes, sizeof(Dag) + 28 * in.works.size() + 8 * in.edges.size() +
                       4 * assigned.sinks().size() + 8);
}

}  // namespace
}  // namespace dagsched
