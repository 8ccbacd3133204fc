#include "dag/generators.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dag/builder.h"
#include "util/check.h"

namespace dagsched {

Work WorkDist::sample(Rng& rng) const {
  double w = 0.0;
  switch (kind) {
    case Kind::kConstant: w = a; break;
    case Kind::kUniform: w = rng.uniform(a, b); break;
    case Kind::kLognormal: w = rng.lognormal(a, b); break;
    case Kind::kPareto: w = rng.pareto(a, b); break;
  }
  // Node weights must be strictly positive for a valid Dag.
  return std::max(w, 1e-9);
}

Dag make_single_node(Work w) {
  DagBuilder b;
  b.add_node(w);
  return b.build();
}

Dag make_chain(std::size_t nodes, Work node_work) {
  DagBuilder b;
  b.add_chain(nodes, node_work);
  return b.build();
}

Dag make_parallel_block(std::size_t nodes, Work node_work) {
  if (nodes == 0) throw std::invalid_argument("block needs >= 1 node");
  DagBuilder b;
  b.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) b.add_node(node_work);
  return b.build();
}

Dag make_fig1_dag(ProcCount m, std::size_t chain_nodes, Work node_work) {
  if (m < 2) throw std::invalid_argument("fig1 DAG requires m >= 2");
  if (chain_nodes == 0) throw std::invalid_argument("fig1 needs a chain");
  DagBuilder b;
  const std::size_t block_nodes = static_cast<std::size_t>(m - 1) * chain_nodes;
  b.reserve(chain_nodes + block_nodes, chain_nodes - 1);
  b.add_chain(chain_nodes, node_work);
  for (std::size_t i = 0; i < block_nodes; ++i) b.add_node(node_work);
  return b.build();
}

Dag make_fig2_dag(std::size_t chain_nodes, std::size_t block_nodes,
                  Work node_size) {
  if (chain_nodes == 0 || block_nodes == 0) {
    throw std::invalid_argument("fig2 needs chain and block nodes");
  }
  DagBuilder b;
  b.reserve(chain_nodes + block_nodes, chain_nodes - 1 + block_nodes);
  const auto [first, last] = b.add_chain(chain_nodes, node_size);
  (void)first;
  for (std::size_t i = 0; i < block_nodes; ++i) {
    const NodeId blk = b.add_node(node_size);
    b.add_edge(last, blk);
  }
  return b.build();
}

Dag make_fork_join(std::size_t segments, std::size_t width, Work node_work,
                   Work sync_work) {
  if (segments == 0 || width == 0) {
    throw std::invalid_argument("fork_join needs segments >= 1, width >= 1");
  }
  DagBuilder b;
  NodeId prev_join = kInvalidNode;
  for (std::size_t s = 0; s < segments; ++s) {
    const NodeId fork = b.add_node(sync_work);
    if (prev_join != kInvalidNode) b.add_edge(prev_join, fork);
    const NodeId join = b.add_node(sync_work);
    for (std::size_t i = 0; i < width; ++i) {
      const NodeId body = b.add_node(node_work);
      b.add_edge(fork, body);
      b.add_edge(body, join);
    }
    prev_join = join;
  }
  return b.build();
}

Dag make_wavefront(std::size_t rows, std::size_t cols, Work node_work) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("wavefront needs rows, cols >= 1");
  }
  DagBuilder b;
  b.reserve(rows * cols, 2 * rows * cols);
  // Row-major node ids.
  for (std::size_t i = 0; i < rows * cols; ++i) b.add_node(node_work);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r > 0) b.add_edge(id(r - 1, c), id(r, c));
      if (c > 0) b.add_edge(id(r, c - 1), id(r, c));
    }
  }
  return b.build();
}

Dag make_stencil_1d(std::size_t iterations, std::size_t width,
                    Work node_work) {
  if (iterations == 0 || width == 0) {
    throw std::invalid_argument("stencil needs iterations, width >= 1");
  }
  DagBuilder b;
  b.reserve(iterations * width, 3 * iterations * width);
  for (std::size_t i = 0; i < iterations * width; ++i) b.add_node(node_work);
  auto id = [width](std::size_t t, std::size_t i) {
    return static_cast<NodeId>(t * width + i);
  };
  for (std::size_t t = 1; t < iterations; ++t) {
    for (std::size_t i = 0; i < width; ++i) {
      if (i > 0) b.add_edge(id(t - 1, i - 1), id(t, i));
      b.add_edge(id(t - 1, i), id(t, i));
      if (i + 1 < width) b.add_edge(id(t - 1, i + 1), id(t, i));
    }
  }
  return b.build();
}

Dag make_map_reduce(std::size_t mappers, std::size_t reducers, Work map_work,
                    Work reduce_work, Work output_work) {
  if (mappers == 0 || reducers == 0) {
    throw std::invalid_argument("map_reduce needs mappers, reducers >= 1");
  }
  DagBuilder b;
  b.reserve(mappers + reducers + 1, mappers * reducers + reducers);
  std::vector<NodeId> maps, reduces;
  for (std::size_t i = 0; i < mappers; ++i) maps.push_back(b.add_node(map_work));
  for (std::size_t i = 0; i < reducers; ++i) {
    reduces.push_back(b.add_node(reduce_work));
  }
  const NodeId output = b.add_node(output_work);
  for (const NodeId map : maps) {
    for (const NodeId reduce : reduces) b.add_edge(map, reduce);
  }
  for (const NodeId reduce : reduces) b.add_edge(reduce, output);
  return b.build();
}

Dag make_layered_random(Rng& rng, const LayeredParams& params) {
  DS_CHECK(params.layers >= 1);
  DS_CHECK(params.min_width >= 1 && params.min_width <= params.max_width);
  DagBuilder b;
  std::vector<NodeId> prev_layer;
  for (std::size_t layer = 0; layer < params.layers; ++layer) {
    const auto width = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(params.min_width),
        static_cast<std::int64_t>(params.max_width)));
    std::vector<NodeId> this_layer;
    this_layer.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      const NodeId v = b.add_node(params.work.sample(rng));
      if (!prev_layer.empty()) {
        // Guarantee one predecessor so every non-first layer respects depth.
        const auto pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(prev_layer.size()) - 1));
        b.add_edge(prev_layer[pick], v);
        for (std::size_t j = 0; j < prev_layer.size(); ++j) {
          if (j != pick && rng.bernoulli(params.edge_prob)) {
            b.add_edge(prev_layer[j], v);
          }
        }
      }
      this_layer.push_back(v);
    }
    prev_layer = std::move(this_layer);
  }
  return b.build();
}

namespace {

/// Recursive helper for series-parallel construction; returns (source, sink)
/// node ids of the generated sub-DAG inside `b`.
std::pair<NodeId, NodeId> sp_generate(DagBuilder& b, Rng& rng,
                                      const SeriesParallelParams& params,
                                      std::size_t depth) {
  if (depth == 0) {
    const NodeId leaf = b.add_node(params.leaf_work.sample(rng));
    return {leaf, leaf};
  }
  if (rng.bernoulli(params.parallel_prob)) {
    // Parallel composition: fork -> branches -> join.
    const NodeId fork = b.add_node(params.sync_work);
    const NodeId join = b.add_node(params.sync_work);
    const auto branches = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(params.min_branch),
        static_cast<std::int64_t>(params.max_branch)));
    for (std::size_t i = 0; i < branches; ++i) {
      const auto [src, sink] = sp_generate(b, rng, params, depth - 1);
      b.add_edge(fork, src);
      b.add_edge(sink, join);
    }
    return {fork, join};
  }
  // Series composition of two halves.
  const auto [src1, sink1] = sp_generate(b, rng, params, depth - 1);
  const auto [src2, sink2] = sp_generate(b, rng, params, depth - 1);
  b.add_edge(sink1, src2);
  return {src1, sink2};
}

}  // namespace

Dag make_series_parallel(Rng& rng, const SeriesParallelParams& params) {
  DS_CHECK(params.min_branch >= 2 && params.min_branch <= params.max_branch);
  DagBuilder b;
  (void)sp_generate(b, rng, params, params.max_depth);
  return b.build();
}

Dag make_random_dag(Rng& rng, const RandomDagParams& params) {
  DS_CHECK(params.nodes >= 1);
  DagBuilder b;
  for (std::size_t i = 0; i < params.nodes; ++i) {
    b.add_node(params.work.sample(rng));
  }
  for (std::size_t i = 0; i < params.nodes; ++i) {
    for (std::size_t j = i + 1; j < params.nodes; ++j) {
      if (rng.bernoulli(params.edge_prob)) {
        b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return b.build();
}

}  // namespace dagsched
