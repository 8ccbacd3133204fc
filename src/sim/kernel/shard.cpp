#include "sim/kernel/shard.h"

#include <algorithm>

#include "fault/injector.h"
#include "sim/kernel/job_state.h"
#include "sim/scheduler.h"
#include "util/check.h"

namespace dagsched {

namespace {
/// Spin iterations before parking.  Builds are microsecond-scale (one DAG
/// unfolding), epochs shorter still, so a short spin covers the common case
/// where the producer is already mid-way; anything longer burns a core that
/// the workers themselves need.
constexpr int kSpinLimit = 4096;
}  // namespace

ShardRuntime::ShardRuntime(const JobSet& jobs, const SchedulerBase& scheduler,
                           const FaultInjector* faults, double speed,
                           std::size_t shards)
    : jobs_(jobs),
      scheduler_(scheduler),
      faults_(faults),
      speed_(speed),
      prep_size_(scheduler.arrival_precompute_size()) {
  DS_CHECK_MSG(shards >= 2, "ShardRuntime needs >= 2 shards (1 is serial)");
  const std::size_t n = jobs_.size();
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    shard->total_count = n > s ? (n - s - 1) / shards + 1 : 0;
    shard->staged.resize(shard->total_count);
    shard->prep.resize(shard->total_count * prep_size_);
    // Exact arena pre-size for this shard's unfolding blocks, mirroring the
    // serial table's reservation (job_state.cpp): one chunk, no doubling
    // ramp.  Fault-scaled init columns still grow on demand.
    std::size_t own_nodes = 0;
    for (std::size_t idx = 0; idx < shard->total_count; ++idx) {
      own_nodes += jobs_[static_cast<JobId>(s + idx * shards)]
                       .dag()
                       .num_nodes();
    }
    if (own_nodes > 0) {
      shard->arena.reserve(own_nodes * (sizeof(Work) + 4 * sizeof(NodeId)) +
                           shard->total_count * alignof(Work));
    }
    shards_.push_back(std::move(shard));
  }
  workers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

ShardRuntime::~ShardRuntime() {
  {
    std::lock_guard<std::mutex> lock(ctrl_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ShardRuntime::restart(JobId from) {
  const std::size_t k = shards_.size();
  std::unique_lock<std::mutex> lock(ctrl_mutex_);
  ++run_target_;
  run_gen_.store(run_target_, std::memory_order_release);
  ctrl_cv_.notify_all();
  // Workers ack the generation bump and park until ready_gen_ catches up,
  // so between the wait below and the final notify the staging state has a
  // single owner (this thread).
  ctrl_cv_.wait(lock, [&] { return restart_acks_ == k; });
  restart_acks_ = 0;
  for (auto& shard_ptr : shards_) {
    Shard& sh = *shard_ptr;
    // Destroy staged unfoldings *before* rewinding the arena their blocks
    // live in, then re-default the slots (capacity retained: no heap
    // traffic on warm restarts).
    sh.staged.clear();
    sh.staged.resize(sh.total_count);
    sh.arena.reset();
    sh.arena_hw.store(sh.arena.high_water(), std::memory_order_relaxed);
    sh.built.store(0, std::memory_order_seq_cst);
    const std::size_t id = static_cast<std::size_t>(from);
    sh.start_index = id <= sh.index ? 0 : (id - sh.index + k - 1) / k;
    sh.build_count = sh.total_count;
  }
  // No epoch is in flight here (restart and run_advance are both
  // main-thread), so this snapshot is what workers must resume relative to.
  restart_epoch_ = epoch_gen_.load(std::memory_order_relaxed);
  ready_gen_ = run_target_;
  ctrl_cv_.notify_all();
}

PreparedArrival& ShardRuntime::acquire(JobId id) {
  const std::size_t k = shards_.size();
  Shard& sh = *shards_[static_cast<std::size_t>(id) % k];
  const std::size_t idx = static_cast<std::size_t>(id) / k;
  if (sh.built.load(std::memory_order_acquire) > idx) return sh.staged[idx];
  for (int spin = 0; spin < kSpinLimit; ++spin) {
    if (sh.built.load(std::memory_order_acquire) > idx) return sh.staged[idx];
  }
  // Dekker handshake with build_one(): both the waiting store below and the
  // worker's built store are seq_cst, so either the worker's waiting load
  // sees true (and it notifies under the mutex) or this thread's predicate
  // re-read of built sees the published index -- a lost wakeup would require
  // both seq_cst accesses to order *before* their counterparts, which the
  // single total order forbids.
  std::unique_lock<std::mutex> lock(sh.mutex);
  sh.waiting.store(true, std::memory_order_seq_cst);
  sh.cv.wait(lock, [&] {
    return sh.built.load(std::memory_order_acquire) > idx;
  });
  sh.waiting.store(false, std::memory_order_relaxed);
  return sh.staged[idx];
}

const void* ShardRuntime::precomputed(JobId id) const {
  if (prep_size_ == 0) return nullptr;
  const std::size_t k = shards_.size();
  const Shard& sh = *shards_[static_cast<std::size_t>(id) % k];
  return sh.prep.data() + (static_cast<std::size_t>(id) / k) * prep_size_;
}

void ShardRuntime::build_one(Shard& sh, std::size_t idx) {
  const JobId id = static_cast<JobId>(sh.index + idx * shards_.size());
  const Job& job = jobs_[id];
  PreparedArrival& slot = sh.staged[idx];
  // Mirror of the serial deliver_arrivals() construction path: the fault
  // injector's scaled_works is a pure function of (seed, id, dag), so the
  // staged unfolding is bit-identical to a delivery-time build.
  bool scaled = false;
  if (faults_ != nullptr && faults_->scales_work()) {
    const std::vector<Work> works = faults_->scaled_works(id, job.dag());
    if (!works.empty()) {
      slot.unfolding = UnfoldingState(job.dag(), works, &sh.arena);
      scaled = true;
    }
  }
  if (!scaled) slot.unfolding = UnfoldingState(job.dag(), &sh.arena);
  if (prep_size_ > 0) {
    scheduler_.precompute_arrival(job, id, speed_,
                                  sh.prep.data() + idx * prep_size_);
  }
  sh.arena_hw.store(sh.arena.high_water(), std::memory_order_relaxed);
  sh.built.store(idx + 1, std::memory_order_seq_cst);
  if (sh.waiting.load(std::memory_order_seq_cst)) {
    // Lock-then-notify so a consumer between its waiting store and its
    // cv.wait cannot miss this publication.
    std::lock_guard<std::mutex> lock(sh.mutex);
    sh.cv.notify_one();
  }
}

void ShardRuntime::run_advance(const std::pair<JobId, NodeId>* entries,
                               std::size_t count, Work amount, Time start,
                               JobStateTable& table, std::uint8_t* flags) {
  epoch_entries_ = entries;
  epoch_count_ = count;
  epoch_amount_ = amount;
  epoch_start_ = start;
  epoch_table_ = &table;
  epoch_flags_ = flags;
  epoch_pending_.store(shards_.size(), std::memory_order_relaxed);
  {
    // The generation bump happens under ctrl_mutex_ so a worker parked on
    // ctrl_cv_ re-evaluates its predicate after the store, never before.
    std::lock_guard<std::mutex> lock(ctrl_mutex_);
    epoch_gen_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  for (int spin = 0; spin < kSpinLimit; ++spin) {
    if (epoch_pending_.load(std::memory_order_acquire) == 0) return;
  }
  std::unique_lock<std::mutex> lock(epoch_mutex_);
  epoch_cv_.wait(lock, [&] {
    return epoch_pending_.load(std::memory_order_acquire) == 0;
  });
}

void ShardRuntime::run_epoch_slice(std::size_t s) {
  const std::size_t k = shards_.size();
  JobStateTable& table = *epoch_table_;
  const std::pair<JobId, NodeId>* entries = epoch_entries_;
  const Work amount = epoch_amount_;
  const Time start = epoch_start_;
  std::uint8_t* flags = epoch_flags_;
  for (std::size_t i = 0; i < epoch_count_; ++i) {
    const auto [job, node] = entries[i];
    if (static_cast<std::size_t>(job) % k != s) continue;
    // The pure per-(job, node) half of SimKernel::advance_interval.
    // Same-job entries share a shard and are visited in global entry order,
    // so the floating-point accumulation sequence per job matches the
    // serial loop exactly; everything cross-job (counters, busy time,
    // trace, victim map) is replayed serially by the kernel from the flag
    // bytes.
    UnfoldingState& unfolding = table.unfolding(job);
    std::uint8_t flag = 0;
    if (unfolding.remaining_work(node) == unfolding.initial_work(node)) {
      flag |= kStarted;
    }
    if (unfolding.advance(node, amount)) flag |= kNodeDone;
    table.executed(job) += amount;
    Time& first_start = table.first_start(job);
    first_start = std::min(first_start, start);
    flags[i] = flag;
  }
}

void ShardRuntime::worker_loop(std::size_t s) {
  Shard& sh = *shards_[s];
  std::uint64_t seen_run = 0;
  std::uint64_t seen_epoch = 0;
  std::size_t cursor = 0;
  std::size_t count = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    if (run_gen_.load(std::memory_order_acquire) != seen_run) {
      // Restart rendezvous: ack, park until the main thread has rebuilt the
      // staging state, then pick up the new cursor window.
      std::unique_lock<std::mutex> lock(ctrl_mutex_);
      seen_run = run_gen_.load(std::memory_order_relaxed);
      ++restart_acks_;
      ctrl_cv_.notify_all();
      ctrl_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               ready_gen_ >= seen_run;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      cursor = sh.start_index;
      count = sh.build_count;
      // The restart-time snapshot, still under ctrl_mutex_ -- a live read
      // of epoch_gen_ could swallow an epoch bumped between the main
      // thread finishing restart() and this worker getting scheduled (see
      // restart_epoch_ in shard.h).
      seen_epoch = restart_epoch_;
      continue;
    }
    const std::uint64_t epoch = epoch_gen_.load(std::memory_order_acquire);
    if (epoch != seen_epoch) {
      seen_epoch = epoch;
      run_epoch_slice(s);
      if (epoch_pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last one out: lock-then-notify so the main thread cannot park
        // between its pending check and its wait.
        std::lock_guard<std::mutex> lock(epoch_mutex_);
        epoch_cv_.notify_one();
      }
      continue;
    }
    if (cursor < count) {
      build_one(sh, cursor++);
      continue;
    }
    // Fully drained: park until stop / restart / the next epoch.  The
    // bounded spin lives in the consumers; producers with no work sleep.
    std::unique_lock<std::mutex> lock(ctrl_mutex_);
    ctrl_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             run_gen_.load(std::memory_order_relaxed) != seen_run ||
             epoch_gen_.load(std::memory_order_relaxed) != seen_epoch;
    });
  }
}

std::size_t ShardRuntime::arena_high_water() const {
  // Advisory gauge, readable mid-run: each shard's worker publishes its
  // arena's high-water mark after every completed build, so this never
  // touches an arena a worker is allocating from.
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->arena_hw.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t ShardRuntime::arena_capacity() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->arena.capacity();
  return total;
}

std::size_t ShardRuntime::staging_bytes() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    total += sh->staged.capacity() * sizeof(PreparedArrival) +
             sh->prep.capacity();
  }
  return total;
}

}  // namespace dagsched
