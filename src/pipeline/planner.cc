#include "pipeline/planner.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "models/profiler.h"

namespace proteus {

std::vector<Duration>
splitBudget(Duration total, const std::vector<Duration>& weights)
{
    PROTEUS_ASSERT(!weights.empty(), "empty budget split");
    PROTEUS_ASSERT(total > 0, "non-positive budget ", total);
    const std::size_t n = weights.size();
    Duration weight_sum = 0;
    for (Duration w : weights) {
        PROTEUS_ASSERT(w >= 0, "negative weight");
        weight_sum += w;
    }

    std::vector<Duration> budgets(n, 0);
    std::vector<double> remainder(n, 0.0);
    Duration assigned = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Equal split when no weights were given (degenerate input).
        const double share =
            weight_sum > 0
                ? static_cast<double>(total) *
                      (static_cast<double>(weights[i]) /
                       static_cast<double>(weight_sum))
                : static_cast<double>(total) / static_cast<double>(n);
        budgets[i] = static_cast<Duration>(share);  // floor (share >= 0)
        remainder[i] = share - static_cast<double>(budgets[i]);
        assigned += budgets[i];
    }
    // Largest-remainder rounding: hand the leftover microseconds to
    // the stages with the biggest fractional share, earlier stage on
    // ties, so the budgets sum to the SLO exactly.
    while (assigned < total) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (remainder[i] > remainder[best])
                best = i;
        }
        ++budgets[best];
        remainder[best] = -1.0;
        ++assigned;
    }
    return budgets;
}

namespace {

/** Variant combinations enumerated before falling back to the min-r split. */
constexpr std::size_t kMaxCombos = std::size_t{1} << 20u;

/**
 * The smallest stage SLO under which @p v is usable at batch 1
 * anywhere in the cluster: the half-SLO batching rule requires
 * slo/2 >= batch-1 latency on the variant's best device type. Using
 * the best type (not the slowest-type SLO anchor) matters on mixed
 * clusters: it is the true feasibility floor, and inflating it would
 * make the planner starve fast stages of throughput headroom.
 */
Duration
minStageSlo(const Cluster& cluster, const CostModel& cost, VariantId v)
{
    return 2 * variantFloorLatency(cluster, cost, v);
}

/**
 * Enumerate per-stage variant combinations of @p pipe and return the
 * per-stage r values (minimum stage SLOs) of the winner. Feasible
 * combos (sum r <= SLO) are ranked by product accuracy, then by
 * smaller total r, then by lexicographic variant ids; when nothing is
 * feasible the min-total-r combo wins (with a warning) so the split
 * still favors the stages that need the time most.
 */
std::vector<Duration>
enumerateCombos(const CompiledPipeline& pipe,
                const ModelRegistry& registry, const Cluster& cluster,
                const CostModel& cost)
{
    const std::size_t n = pipe.stages.size();
    // Per-stage candidate lists: (min stage SLO, normalized accuracy).
    std::vector<std::vector<Duration>> stage_r(n);
    std::vector<std::vector<double>> stage_acc(n);
    std::size_t combos = 1;
    bool overflow = false;
    for (std::size_t s = 0; s < n; ++s) {
        const auto& variants =
            registry.variantsOf(pipe.stages[s].family);
        for (VariantId v : variants) {
            stage_r[s].push_back(minStageSlo(cluster, cost, v));
            stage_acc[s].push_back(registry.variant(v).accuracy /
                                   100.0);
        }
        if (combos > kMaxCombos / variants.size())
            overflow = true;
        combos *= variants.size();
    }
    if (overflow) {
        // DAG too large to enumerate: weight each stage by its
        // cheapest variant's requirement, the floor every feasible
        // combination shares.
        warn("pipeline \"", pipe.name, "\": ", combos,
             "+ variant combinations exceed the enumeration cap; "
             "splitting by per-stage minimum requirements");
        std::vector<Duration> weights(n);
        for (std::size_t s = 0; s < n; ++s)
            weights[s] = *std::min_element(stage_r[s].begin(),
                                           stage_r[s].end());
        return weights;
    }

    std::vector<std::size_t> pick(n, 0);       // odometer
    std::vector<std::size_t> best_pick;
    std::vector<std::size_t> best_any_pick;    // min total r fallback
    double best_acc = -1.0;
    Duration best_sum = 0;
    Duration best_any_sum = std::numeric_limits<Duration>::max();
    bool exhausted = false;
    while (!exhausted) {
        Duration sum = 0;
        double acc = 1.0;
        for (std::size_t s = 0; s < n; ++s) {
            sum += stage_r[s][pick[s]];
            acc *= stage_acc[s][pick[s]];
        }
        if (sum < best_any_sum) {
            best_any_sum = sum;
            best_any_pick = pick;
        }
        if (sum <= pipe.slo &&
            (acc > best_acc ||
             (acc == best_acc && sum < best_sum))) {
            // Lexicographic tie-break is implicit: the odometer walks
            // variant ids in ascending order, and strict comparisons
            // keep the first combo seen among exact ties.
            best_acc = acc;
            best_sum = sum;
            best_pick = pick;
        }
        // Advance the odometer (last stage fastest).
        exhausted = true;
        std::size_t s = n;
        while (s > 0) {
            --s;
            if (++pick[s] < stage_r[s].size()) {
                exhausted = false;
                break;
            }
            pick[s] = 0;
        }
    }
    if (best_pick.empty()) {
        warn("pipeline \"", pipe.name, "\": no variant combination "
             "fits the ", toMillis(pipe.slo), " ms end-to-end SLO; "
             "splitting by the fastest combination");
        best_pick = best_any_pick;
    }
    std::vector<Duration> weights(n);
    for (std::size_t s = 0; s < n; ++s)
        weights[s] = stage_r[s][best_pick[s]];
    return weights;
}

}  // namespace

void
planPipelineBudgets(CompiledPipelines* pipelines,
                    const ModelRegistry& registry,
                    const Cluster& cluster, const CostModel& cost,
                    const PipelinePlannerOptions& options)
{
    for (CompiledPipeline& pipe : pipelines->mutablePipelines()) {
        // End-to-end SLO: explicit, or multiplier x the sum of stage
        // anchors (the pipeline analogue of the single-family rule).
        if (pipe.slo <= 0) {
            double mult = pipe.slo_multiplier > 0.0
                              ? pipe.slo_multiplier
                              : options.slo_multiplier;
            Duration anchor_sum = 0;
            for (const CompiledStage& st : pipe.stages) {
                anchor_sum +=
                    familyAnchorLatency(registry, cluster, cost, st.family);
            }
            pipe.slo = static_cast<Duration>(
                static_cast<double>(anchor_sum) * mult);
        }
        PROTEUS_ASSERT(pipe.slo > 0, "pipeline \"", pipe.name,
                       "\" has no SLO");

        std::vector<Duration> weights;
        if (options.joint) {
            weights = enumerateCombos(pipe, registry, cluster, cost);
        } else {
            // Per-stage-independent baseline: equal split.
            weights.assign(pipe.stages.size(), 1);
        }
        std::vector<Duration> budgets = splitBudget(pipe.slo, weights);
        for (std::size_t s = 0; s < pipe.stages.size(); ++s)
            pipe.stages[s].budget = budgets[s];
    }
}

}  // namespace proteus
