#include "sim/kernel/job_state.h"

#include <algorithm>

namespace dagsched {

void JobStateTable::reset(const JobSet& jobs) {
  const std::size_t n = jobs.size();
  flags_.assign(n, 0);
  completion_time_.assign(n, kTimeInfinity);
  // Disengage every unfolding before rewinding the pool its blocks live in.
  exec_.clear();
  exec_.resize(n);
  pool_.reset();

  active_.clear();
  active_pos_.assign(n, kNoActiveSlot);
  active_live_ = 0;

  job_stamp_.assign(n, 0);
  alloc_stamp_.assign(n, 0);
}

void JobStateTable::compact_active() {
  std::size_t w = 0;
  for (const JobId id : active_) {
    if (id == kInvalidJob) continue;
    active_pos_[id] = static_cast<std::uint32_t>(w);
    active_[w++] = id;
  }
  active_.resize(w);
}

std::size_t JobStateTable::memory_bytes() const {
  return flags_.capacity() * sizeof(std::uint8_t) +
         completion_time_.capacity() * sizeof(Time) +
         exec_.capacity() * sizeof(JobExec) +
         active_.capacity() * sizeof(JobId) +
         active_pos_.capacity() * sizeof(std::uint32_t) +
         job_stamp_.capacity() * sizeof(std::uint32_t) +
         alloc_stamp_.capacity() * sizeof(std::uint32_t);
}

}  // namespace dagsched
