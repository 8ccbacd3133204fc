#include "dag/unfolding.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/check.h"
#include "util/wire.h"

namespace dagsched {

UnfoldingState UnfoldingState::deferred(const Dag& dag,
                                        std::span<const Work> works) {
  UnfoldingState state;
  state.dag_ = &dag;
  state.n_ = static_cast<NodeId>(dag.num_nodes());
  state.ready_size_ = static_cast<NodeId>(dag.sources().size());
  state.nodes_remaining_ = state.n_;
  if (works.empty()) {
    state.total_remaining_ = dag.total_work();
  } else {
    DS_CHECK_MSG(works.size() == dag.num_nodes(),
                 "works size " << works.size() << " != nodes "
                               << dag.num_nodes());
    for (const Work w : works) state.total_remaining_ += w;
  }
  return state;
}

void UnfoldingState::materialize(std::byte* block,
                                 std::span<const Work> works) {
  DS_CHECK(engaged() && idx_ == nullptr && nodes_remaining_ == n_);
  const bool scaled = !works.empty();
  rem_ = reinterpret_cast<Work*>(block);
  init_ = scaled ? rem_ + n_ : nullptr;
  idx_ = reinterpret_cast<NodeId*>(rem_ + (scaled ? 2 : 1) *
                                              static_cast<std::size_t>(n_));
  if (scaled) {
    for (NodeId v = 0; v < n_; ++v) {
      DS_CHECK_MSG(works[v] > 0.0,
                   "node " << v << " has non-positive work " << works[v]);
      init_[v] = works[v];
      rem_[v] = works[v];
    }
  }
  ready_size_ = 0;
  init_structure(*dag_, /*fill_rem=*/!scaled);
  std::memset(node_stamps(), 0, sizeof(std::uint32_t) * n_);
}

void UnfoldingState::materialize_owned(std::span<const Work> works) {
  // Always room for the initial-work column, after the unscaled layout, so
  // ensure_init() never needs to reallocate.  new[] not make_unique: every
  // byte is written before it is read, so skip the value-init memset.
  owned_.reset(new std::byte[block_bytes(n_, true)]);
  materialize(owned_.get(), works);
}

UnfoldingState::UnfoldingState(const Dag& dag)
    : UnfoldingState(deferred(dag, {})) {
  materialize_owned({});
}

UnfoldingState::UnfoldingState(const Dag& dag, const std::vector<Work>& works)
    : UnfoldingState(deferred(dag, works)) {
  DS_CHECK_MSG(!works.empty() || dag.num_nodes() == 0,
               "works size 0 != nodes " << dag.num_nodes());
  materialize_owned(works);
}

std::byte* UnfoldingState::release_block() {
  DS_CHECK(idx_ != nullptr && owned_ == nullptr);
  std::byte* block = reinterpret_cast<std::byte*>(rem_);
  rem_ = init_ = nullptr;
  idx_ = nullptr;
  return block;
}

Work* UnfoldingState::ensure_init() {
  if (init_ != nullptr) return init_;
  DS_CHECK(owned_ != nullptr);
  init_ = reinterpret_cast<Work*>(owned_.get() + block_bytes(n_, false));
  for (NodeId v = 0; v < n_; ++v) init_[v] = dag_->node_work(v);
  return init_;
}

void UnfoldingState::init_structure(const Dag& dag, bool fill_rem) {
  // Pending-pred counts, the (empty) ready list, ready positions, statuses
  // -- and, for the unscaled layout, the remaining-work column fused into
  // the same pass over the fresh block (one sweep instead of two; scaled
  // works are filled by materialize itself).  Sources become ready in id
  // order.
  NodeId* pending = idx_ + pending_off();
  NodeId* ready_pos = idx_ + ready_pos_off();
  for (NodeId v = 0; v < n_; ++v) {
    if (fill_rem) rem_[v] = dag.node_work(v);
    pending[v] = dag.in_degree(v);
    ready_pos[v] = kNpos;
    set_status(v, Status::kWaiting);
  }
  NodeId* ready = idx_ + ready_off();
  for (NodeId v : dag.sources()) {
    set_status(v, Status::kReady);
    ready_pos[v] = ready_size_;
    ready[ready_size_++] = v;
  }
}

Work UnfoldingState::reset_progress(NodeId node) {
  DS_CHECK_MSG(status(node) != Status::kDone,
               "reset_progress on completed node " << node);
  const Work initial = initial_work(node);
  const Work lost = initial - rem_[node];
  rem_[node] = initial;
  total_remaining_ += lost;
  return lost;
}

void UnfoldingState::advance_failed(NodeId node, Work amount,
                                    Work remaining) const {
  DS_CHECK_MSG(status(node) == Status::kReady,
               "advance on non-ready node " << node);
  DS_CHECK_MSG(amount >= 0.0, "negative work amount " << amount);
  DS_CHECK_MSG(remaining >= 0.0,
               "node " << node << " overshot by " << -remaining);
  std::abort();  // unreachable: called only when one of the checks fails
}

void UnfoldingState::mark_done(NodeId node, std::vector<NodeId>* newly_ready) {
  set_status(node, Status::kDone);
  --nodes_remaining_;
  if (nodes_remaining_ == 0) total_remaining_ = 0.0;  // clear float residue
  // Swap-remove from the ready list, keeping the position map consistent.
  NodeId* ready = idx_ + ready_off();
  NodeId* ready_pos = idx_ + ready_pos_off();
  const NodeId pos = ready_pos[node];
  DS_CHECK(pos != kNpos);
  const NodeId moved = ready[ready_size_ - 1];
  ready[pos] = moved;
  ready_pos[moved] = pos;
  --ready_size_;
  ready_pos[node] = kNpos;

  NodeId* pending = idx_ + pending_off();
  for (NodeId succ : dag_->successors(node)) {
    DS_CHECK(pending[succ] > 0);
    if (--pending[succ] == 0) {
      set_status(succ, Status::kReady);
      ready_pos[succ] = ready_size_;
      ready[ready_size_++] = succ;
      if (newly_ready != nullptr) newly_ready->push_back(succ);
    }
  }
}

void UnfoldingState::save_state(CheckpointWriter& out,
                                std::span<const Work> initial) const {
  out.u64(n_);
  // Fixed dagsched.checkpoint/1 order: the initial-work column is written
  // even when elided in memory (it then equals the Dag's declared works).
  const auto initial_of = [&](NodeId v) {
    if (idx_ != nullptr) return initial_work(v);
    return initial.empty() ? dag_->node_work(v) : initial[v];
  };
  for (NodeId v = 0; v < n_; ++v) out.f64(initial_of(v));
  if (idx_ != nullptr) {
    for (NodeId v = 0; v < n_; ++v) out.f64(rem_[v]);
    const std::size_t ready_end = static_cast<std::size_t>(n_) + ready_size_;
    for (std::size_t i = 0; i < ready_end; ++i) out.u32(idx_[i]);
    for (std::size_t i = ready_end; i < ready_pos_off(); ++i) out.u32(0);
    for (std::size_t i = ready_pos_off(); i < 4 * std::size_t{n_}; ++i) {
      out.u32(idx_[i]);
    }
  } else if (complete()) {
    // The block a completed job released: every node done at zero remaining
    // work, every pending count drained, no ready-list entry.
    for (NodeId v = 0; v < n_; ++v) out.f64(0.0);
    for (std::size_t i = 0; i < 2 * std::size_t{n_}; ++i) out.u32(0);
    for (NodeId v = 0; v < n_; ++v) out.u32(kNpos);
    for (NodeId v = 0; v < n_; ++v) out.u32(static_cast<NodeId>(Status::kDone));
  } else {
    // The pristine block init_structure would build: sources ready in id
    // order (the Dag lists them so), everything else waiting.
    const std::span<const NodeId> sources = dag_->sources();
    for (NodeId v = 0; v < n_; ++v) out.f64(initial_of(v));
    for (NodeId v = 0; v < n_; ++v) out.u32(dag_->in_degree(v));
    for (const NodeId v : sources) out.u32(v);
    for (std::size_t i = sources.size(); i < n_; ++i) out.u32(0);
    NodeId next_source = 0;
    for (NodeId v = 0; v < n_; ++v) {
      const bool source = next_source < sources.size() &&
                          sources[next_source] == v;
      out.u32(source ? next_source++ : kNpos);
    }
    DS_CHECK(next_source == sources.size());
    for (NodeId v = 0; v < n_; ++v) {
      out.u32(static_cast<NodeId>(dag_->in_degree(v) == 0 ? Status::kReady
                                                          : Status::kWaiting));
    }
  }
  out.u64(ready_size_);
  out.f64(total_remaining_);
  out.u32(nodes_remaining_);
}

void UnfoldingState::load_state(CheckpointReader& in) {
  DS_CHECK(idx_ != nullptr);
  const std::uint64_t n = in.u64();
  if (n != n_) {
    in.fail("unfolding has " + std::to_string(n) + " nodes, DAG has " +
            std::to_string(n_));
  }
  for (NodeId v = 0; v < n_; ++v) {
    const Work w = in.f64();
    if (init_ != nullptr) {
      init_[v] = w;
    } else if (w != dag_->node_work(v)) {
      // Fault-scaled run: materialize the initial-work column on the first
      // value that diverges from the Dag (entries before it were equal).
      if (owned_ == nullptr) {
        in.fail("node " + std::to_string(v) +
                " has a scaled initial work this run's fault plan does not "
                "give it");
      }
      ensure_init()[v] = w;
    }
  }
  for (NodeId v = 0; v < n_; ++v) rem_[v] = in.f64();
  const std::size_t idx_len = 4 * static_cast<std::size_t>(n_);
  for (std::size_t i = 0; i < idx_len; ++i) idx_[i] = in.u32();
  const std::uint64_t ready = in.u64();
  if (ready > n_) in.fail("ready count exceeds node count");
  ready_size_ = static_cast<NodeId>(ready);
  total_remaining_ = in.f64();
  const NodeId remaining = in.u32();
  if (remaining > n_) in.fail("nodes-remaining exceeds node count");
  nodes_remaining_ = remaining;
  // Restored invariants the engines rely on: every status byte is a valid
  // Status, and the ready list / ready-pos maps are mutually consistent.
  const NodeId* ready_list = idx_ + ready_off();
  const NodeId* ready_pos = idx_ + ready_pos_off();
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId s = idx_[status_off() + v];
    if (s > static_cast<NodeId>(Status::kDone)) {
      in.fail("node " + std::to_string(v) + " has invalid status " +
              std::to_string(s));
    }
    const bool node_ready = s == static_cast<NodeId>(Status::kReady);
    if (node_ready !=
        (ready_pos[v] != kNpos && ready_pos[v] < ready_size_ &&
         ready_list[ready_pos[v]] == v)) {
      in.fail("node " + std::to_string(v) +
              " ready status disagrees with the ready list");
    }
  }
}

Work UnfoldingState::remaining_span(std::span<const Work> initial) const {
  // Longest path over unfinished nodes using remaining work, computed along
  // the static topological order (a superset of the unfinished subgraph's
  // topological order).  The scratch is thread-local and shared across
  // instances: stale entries need no clearing -- the only entries read are
  // those of non-done predecessors, and the topological sweep writes every
  // non-done node before any successor reads it.  Without a block every
  // node is done (completed) or unstarted (deferred), so the sweep below is
  // the one a pristine block would run.
  const bool block = idx_ != nullptr;
  if (!block && complete()) return 0.0;
  thread_local std::vector<Work> span_depth;
  if (span_depth.size() < n_) span_depth.resize(n_);
  Work best = 0.0;
  for (NodeId v : dag_->topological_order()) {
    if (block && status(v) == Status::kDone) continue;
    Work prefix = 0.0;
    for (NodeId u : dag_->predecessors(v)) {
      if (block && status(u) == Status::kDone) continue;
      prefix = std::max(prefix, span_depth[u]);
    }
    const Work remaining =
        block ? rem_[v] : (initial.empty() ? dag_->node_work(v) : initial[v]);
    span_depth[v] = prefix + remaining;
    best = std::max(best, span_depth[v]);
  }
  return best;
}

}  // namespace dagsched
