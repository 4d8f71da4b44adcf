/**
 * @file
 * Pipeline budget planner: decomposes each pipeline's end-to-end
 * latency SLO into per-stage budgets (DESIGN.md, "Pipeline serving").
 *
 * The generalized allocation problem — pick one variant per stage so
 * the sum of stage latency budgets meets the end-to-end SLO while the
 * product of stage accuracies is maximal — is non-convex in its raw
 * form (product objective, coupled budgets). The documented
 * convexification keeps it inside the existing per-family MILP:
 *
 *  1. For small DAGs the planner *enumerates* per-pipeline variant
 *     combinations exactly (the mini zoo's 3-stage chain is 5x8x4 =
 *     160 combos). A combination (v_1..v_n) is feasible iff
 *     sum_i r(v_i) <= SLO_e2e, where r(v) = 2 x batch-1 latency of v
 *     on its BEST device type — the smallest stage SLO under which v
 *     is usable anywhere given the Nexus half-SLO batching rule (the
 *     slowest-type anchor that sets SLOs would overstate the floor on
 *     mixed clusters and starve fast stages). Maximizing
 *     prod_i acc(v_i) over feasible combos is equivalent to
 *     maximizing sum_i log acc(v_i) (the log-accuracy linearization);
 *     with a few hundred combos the exact product is evaluated
 *     directly.
 *  2. The winning combination fixes per-stage budgets proportional to
 *     its r(v_i) (largest-remainder rounding, so budgets sum to the
 *     SLO exactly). Each budget becomes the stage family's SLO, and
 *     the unchanged per-epoch MILP then plans variants, placement and
 *     routing per family — stages decouple once the budgets are set,
 *     and the MILP may still pick *more* accurate variants than the
 *     enumerated floor when capacity allows.
 *
 * The per-stage-independent baseline splits the SLO equally instead
 * (budget_i = SLO / n), which starves slow stages and over-provisions
 * fast ones — the gap fig12 measures.
 */

#ifndef PROTEUS_PIPELINE_PLANNER_H_
#define PROTEUS_PIPELINE_PLANNER_H_

#include <vector>

#include "cluster/device.h"
#include "common/types.h"
#include "models/cost_model.h"
#include "models/model.h"
#include "pipeline/pipeline.h"

namespace proteus {

/** Pipeline planner configuration. */
struct PipelinePlannerOptions {
    /** Fallback SLO multiplier for pipelines that do not set one. */
    double slo_multiplier = 2.0;
    /**
     * true: joint planning (enumerate combos, proportional split).
     * false: per-stage-independent baseline (equal split).
     */
    bool joint = true;
};

/**
 * Split @p total proportionally to @p weights with largest-remainder
 * rounding: the returned integer budgets sum to @p total exactly, and
 * ties go to the earlier stage. Zero/empty weights split equally.
 * Exposed for the budget-split unit tests.
 */
std::vector<Duration> splitBudget(Duration total,
                                  const std::vector<Duration>& weights);

/**
 * Derive each pipeline's end-to-end SLO (when not explicit) and write
 * per-stage budgets into @p pipelines. Budgets always sum to the SLO.
 */
void planPipelineBudgets(CompiledPipelines* pipelines,
                         const ModelRegistry& registry,
                         const Cluster& cluster, const CostModel& cost,
                         const PipelinePlannerOptions& options);

}  // namespace proteus

#endif  // PROTEUS_PIPELINE_PLANNER_H_
