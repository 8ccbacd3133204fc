#include "workload/adversarial.h"

#include <cmath>
#include <memory>

#include "core/allocation.h"
#include "core/params.h"
#include "dag/builder.h"
#include "dag/generators.h"
#include "util/check.h"

namespace dagsched {

JobSet make_preemption_trap(ProcCount m, double eps, std::size_t waves,
                            double density_growth) {
  DS_CHECK_MSG(m >= 4, "trap needs m >= 4");
  DS_CHECK_MSG(waves >= 2, "trap needs >= 2 waves");
  const Params params = Params::from_epsilon(eps);

  // Parallel block of 4m+1 unit nodes: W = 4m+1, L = 1.  At the canonical
  // parameterization this yields n ~ 0.8 m -- large enough that two waves
  // cannot run together and that two waves in one density window exceed
  // b*m.
  const std::size_t block_nodes = 4 * static_cast<std::size_t>(m) + 1;
  auto dag = std::make_shared<const Dag>(make_parallel_block(block_nodes, 1.0));
  const Work work = dag->total_work();
  const Work span = dag->span();
  const Time deadline =
      (1.0 + eps) * ((work - span) / static_cast<double>(m) + span);
  const JobAllocation alloc =
      compute_deadline_allocation(work, span, deadline, 1.0, params, 1.0);
  DS_CHECK_MSG(alloc.n > m / 2,
               "trap sizing broke: n=" << alloc.n << " m=" << m);
  DS_CHECK_MSG(2.0 * static_cast<double>(alloc.n) >
                   params.b * static_cast<double>(m),
               "trap sizing broke: 2n within b*m");

  // Profit scale so that wave 0 has density exactly 1; subsequent waves are
  // strictly denser, so a density-greedy policy always switches to the
  // newest wave.  Keep the total density spread within the window factor c.
  const double base_profit = alloc.x * static_cast<double>(alloc.n);
  const double max_growth = std::pow(1.0 + density_growth,
                                     static_cast<double>(waves - 1));
  DS_CHECK_MSG(max_growth < params.c,
               "density spread " << max_growth << " exceeds window factor c="
                                 << params.c << "; reduce waves or growth");

  const Time interval = alloc.x / 2.0;  // next wave halfway through current
  JobSet jobs;
  for (std::size_t k = 0; k < waves; ++k) {
    const Profit p =
        base_profit * std::pow(1.0 + density_growth, static_cast<double>(k));
    jobs.add(Job::with_deadline(dag, static_cast<double>(k) * interval,
                                deadline, p));
  }
  jobs.finalize();
  return jobs;
}

Dag make_clogger_dag(ProcCount m) {
  DS_CHECK_MSG(m >= 8, "clogger needs m >= 8");
  const std::size_t chain_nodes = 3 * static_cast<std::size_t>(m) / 2;
  DagBuilder b;
  b.add_chain(chain_nodes, 1.0);
  for (std::size_t i = 0; i < chain_nodes; ++i) b.add_node(1.0);
  return b.build();
}

Dag make_flat_dag(ProcCount m) {
  DS_CHECK_MSG(m >= 8, "flat needs m >= 8");
  return make_parallel_block(3 * static_cast<std::size_t>(m), 1.0);
}

JobSet make_overload_stream(std::shared_ptr<const Dag> dag, ProcCount m,
                            double eps, std::size_t count,
                            double profit_per_work, Time interval) {
  DS_CHECK(dag != nullptr && count >= 1 && interval > 0.0);
  const Work work = dag->total_work();
  const Work span = dag->span();
  const Time deadline =
      (1.0 + eps) * ((work - span) / static_cast<double>(m) + span);
  JobSet jobs;
  for (std::size_t k = 0; k < count; ++k) {
    jobs.add(Job::with_deadline(dag, static_cast<double>(k) * interval,
                                deadline, profit_per_work * work));
  }
  jobs.finalize();
  return jobs;
}

}  // namespace dagsched
