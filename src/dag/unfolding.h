// Runtime execution state of one DAG job: which nodes are ready, how much
// work remains on each.  This is the object the simulation engines mutate;
// the Dag itself stays immutable.
//
// Semi-non-clairvoyance boundary: schedulers never see this class directly --
// they see only the ready *count* through JobView (sim/views.h).  Engines and
// clairvoyant baselines may inspect everything.
//
// Layout: the per-node state is a single fused block
// [remaining-work | initial-work? | pending-preds|ready-list|ready-pos|status
// | node stamps], either heap-owned (the public constructors) or handed in
// by the caller (materialize(): the kernel carves it from its size-class
// pool and takes it back with release_block() when the job completes).  The
// object itself is a handful of raw pointers plus aggregates -- it lives by
// value in the kernel's structure-of-arrays JobStateTable column.
//
// Block-less states.  A job needs per-node state only while the machine
// runs it, so the kernel arms the descriptor at arrival without a block
// (deferred()), builds the block at the job's first allocation, and returns
// it at completion.  Without a block the scalars still answer exactly what
// the block would: ready_count, nodes_remaining, total_remaining_work,
// complete, is_done, remaining_span, and save_state write the pristine state
// (deferred) or the all-done state (completed, block released).
//
// The initial-work column is elided in the common case: unless fault
// injection scaled this job's node works (or a checkpoint restored scaled
// values), initial_work(v) reads the immutable Dag directly and the block
// stores only *remaining* work -- 28 bytes/node (stamps included) instead of
// 36.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dag/dag.h"
#include "util/float_cmp.h"
#include "util/types.h"

namespace dagsched {

class CheckpointReader;
class CheckpointWriter;

class UnfoldingState {
 public:
  /// Disengaged state (no job arrived yet): `engaged()` is false and every
  /// other member function is off-limits.  Exists so UnfoldingState can be
  /// a plain column in a SoA table.
  UnfoldingState() = default;

  /// Pristine state with a heap-owned block.
  explicit UnfoldingState(const Dag& dag);

  /// Fault-injection variant: per-node *actual* work overrides the DAG's
  /// declared work (modeling misestimated W_i).  `works` must have one entry
  /// per node, each strictly positive.  Schedulers keep seeing the declared
  /// values through JobView; only execution consumes the actual ones.
  UnfoldingState(const Dag& dag, const std::vector<Work>& works);

  /// Engaged but block-less pristine state (see the file header): the
  /// scalars of a fresh UnfoldingState(dag) -- or (dag, works) when `works`
  /// is non-empty -- with no per-node storage yet.
  static UnfoldingState deferred(const Dag& dag, std::span<const Work> works);

  /// Bytes materialize() lays out for an `n`-node job, with or without the
  /// initial-work column (`scaled`); always a multiple of 8.
  static std::size_t block_bytes(std::size_t n, bool scaled) {
    const std::size_t bytes = (scaled ? 2 : 1) * sizeof(Work) * n +
                              5 * sizeof(NodeId) * n;  // idx + stamps
    return (bytes + 7) & ~std::size_t{7};
  }

  /// Builds the pristine per-node state of a deferred() descriptor in
  /// `block` (block_bytes(n, !works.empty()) bytes, 8-byte aligned, owned by
  /// the caller).  `works` must be the span the descriptor was deferred
  /// with: the result is bit-identical to UnfoldingState(dag[, works]).
  void materialize(std::byte* block, std::span<const Work> works);

  /// Hands the caller-owned block back, leaving a block-less state whose
  /// scalars keep answering (see the file header).  Only for a completed
  /// state or a pristine one.  Returns the block passed to materialize().
  std::byte* release_block();

  UnfoldingState(UnfoldingState&& other) noexcept { *this = std::move(other); }
  UnfoldingState& operator=(UnfoldingState&& other) noexcept {
    dag_ = other.dag_;
    owned_ = std::move(other.owned_);
    rem_ = other.rem_;
    init_ = other.init_;
    idx_ = other.idx_;
    n_ = other.n_;
    ready_size_ = other.ready_size_;
    nodes_remaining_ = other.nodes_remaining_;
    total_remaining_ = other.total_remaining_;
    other.dag_ = nullptr;
    other.rem_ = other.init_ = nullptr;
    other.idx_ = nullptr;
    return *this;
  }
  UnfoldingState(const UnfoldingState&) = delete;
  UnfoldingState& operator=(const UnfoldingState&) = delete;

  /// True once constructed from a Dag (the job has arrived).
  bool engaged() const { return dag_ != nullptr; }

  /// True while per-node state exists.  Every per-node accessor except
  /// is_done requires it.
  bool has_block() const { return idx_ != nullptr; }

  const Dag& dag() const { return *dag_; }

  /// Nodes whose predecessors have all completed and which are not yet done.
  /// Order is deterministic: nodes become ready in completion order, sources
  /// in id order (this is the "arbitrary" order a FIFO selector uses).
  std::span<const NodeId> ready() const { return {idx_ + n_, ready_size_}; }

  std::size_t ready_count() const { return ready_size_; }

  bool is_ready(NodeId node) const { return status(node) == Status::kReady; }

  bool is_done(NodeId node) const {
    return idx_ == nullptr ? complete() : status(node) == Status::kDone;
  }

  /// Remaining processing time of `node` at unit speed.
  Work remaining_work(NodeId node) const { return rem_[node]; }

  /// The work `node` started with: the DAG's declared work, or the actual
  /// (possibly overrun) work when constructed with explicit works.
  Work initial_work(NodeId node) const {
    return init_ != nullptr ? init_[node] : dag_->node_work(node);
  }

  /// Discards all progress on an unfinished node (restart-from-zero failure
  /// semantics): remaining work snaps back to initial_work.  Returns the
  /// amount of work lost, which the engine accounts as `lost_work`.
  Work reset_progress(NodeId node);

  /// Total remaining work across all unfinished nodes.
  Work total_remaining_work() const { return total_remaining_; }

  /// Number of nodes not yet completed.
  NodeId nodes_remaining() const { return nodes_remaining_; }

  bool complete() const { return nodes_remaining_ == 0; }

  /// Per-node scratch words for the engine that owns the block (the
  /// kernel's interval epochs), zeroed by construction.
  std::uint32_t* node_stamps() { return idx_ + 4 * static_cast<std::size_t>(n_); }

  /// Apply `amount` of processing to a ready node.  If the node's remaining
  /// work reaches zero (within tolerance) the node completes, successors
  /// whose last predecessor finished become ready, and those newly ready
  /// nodes are appended to `newly_ready` (may be null if the caller doesn't
  /// care).  Returns true iff the node completed.
  /// Inline: both engines' innermost per-node operation.
  bool advance(NodeId node, Work amount,
               std::vector<NodeId>* newly_ready = nullptr) {
    if (status(node) != Status::kReady || !(amount >= 0.0)) [[unlikely]] {
      advance_failed(node, amount, rem_[node]);
    }
    Work& remaining = rem_[node];
    remaining = snap_nonnegative(remaining - amount);
    total_remaining_ = snap_nonnegative(total_remaining_ - amount);
    if (!(remaining >= 0.0)) [[unlikely]] {
      advance_failed(node, amount, remaining);
    }
    if (approx_zero(remaining)) {
      remaining = 0.0;
      mark_done(node, newly_ready);
      return true;
    }
    return false;
  }

  /// Remaining span: weight of the heaviest path through unfinished nodes,
  /// counting each unfinished node's *remaining* work.  O(V+E) using a
  /// thread-local scratch shared across instances (clairvoyant baselines
  /// call this per decision); allocation-free once the scratch has grown to
  /// the largest DAG's node count.  A block-less deferred state reads its
  /// remaining works from `initial` (the works it was deferred with; empty =
  /// the Dag's).
  Work remaining_span(std::span<const Work> initial = {}) const;

  /// Bytes of the per-node block (0 without one; telemetry gauge).  The
  /// remaining-span scratch is thread-global and excluded.
  std::size_t memory_bytes() const {
    if (idx_ == nullptr) return 0;
    return block_bytes(n_, init_ != nullptr || owned_ != nullptr);
  }

  /// Serializes the per-node state plus the derived aggregates verbatim, in
  /// the fixed dagsched.checkpoint/1 field order (initial works, remaining
  /// works, index block).  The ready list order is part of engine
  /// determinism (FIFO selectors read it), so it is saved, not rebuilt; its
  /// unused tail is written as zeros, so the bytes depend on the state
  /// only.  A block-less state writes the pristine or all-done block it
  /// stands for, reading scaled initial works from `initial` (as in
  /// remaining_span).
  void save_state(CheckpointWriter& out,
                  std::span<const Work> initial = {}) const;

  /// Restores state saved by save_state into an instance with a block built
  /// from the same DAG.  Throws CheckpointError when the node count
  /// disagrees, any restored invariant (status codes, ready-list bounds) is
  /// broken, or -- for a caller-owned block, which has no spare column --
  /// the saved initial works are scaled where this block's are not.
  void load_state(CheckpointReader& in);

 private:
  enum class Status : NodeId { kWaiting = 0, kReady = 1, kDone = 2 };

  // Segments of idx_ (all NodeId-typed, n_ entries each).
  std::size_t pending_off() const { return 0; }
  std::size_t ready_off() const { return n_; }
  std::size_t ready_pos_off() const { return 2 * static_cast<std::size_t>(n_); }
  std::size_t status_off() const { return 3 * static_cast<std::size_t>(n_); }

  Status status(NodeId node) const {
    return static_cast<Status>(idx_[status_off() + node]);
  }
  void set_status(NodeId node, Status s) {
    idx_[status_off() + node] = static_cast<NodeId>(s);
  }

  /// Heap-owned construction: block_bytes(n, true) bytes, so a restored
  /// scaled initial-work column always fits.
  void materialize_owned(std::span<const Work> works);
  /// Materializes the initial-work column (copying the DAG's declared works)
  /// so individual entries can diverge from the Dag; heap-owned blocks only.
  Work* ensure_init();
  void init_structure(const Dag& dag, bool fill_rem);
  void mark_done(NodeId node, std::vector<NodeId>* newly_ready);
  /// Cold path of advance(): reports whichever of its checks failed
  /// (`remaining` is the node's remaining work at the failing check).
  [[noreturn]] void advance_failed(NodeId node, Work amount,
                                   Work remaining) const;

  const Dag* dag_ = nullptr;
  /// Set for the public constructors' self-owned block; null for a
  /// caller-owned (materialize) block.
  std::unique_ptr<std::byte[]> owned_;
  /// Remaining work per node (n_ entries).
  Work* rem_ = nullptr;
  /// Initial work per node; null while initial == the Dag's declared works.
  Work* init_ = nullptr;
  /// [0, n): pending predecessor counts; [n, n + ready_size_): the ready
  /// list; [2n, 3n): node -> ready-list index (kNpos when absent);
  /// [3n, 4n): Status per node; [4n, 5n): node stamps.
  NodeId* idx_ = nullptr;
  NodeId n_ = 0;  // == dag_->num_nodes()
  NodeId ready_size_ = 0;
  NodeId nodes_remaining_ = 0;
  Work total_remaining_ = 0.0;

  static constexpr NodeId kNpos = static_cast<NodeId>(-1);
};

}  // namespace dagsched
