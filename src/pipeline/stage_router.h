/**
 * @file
 * StageRouter: the pipeline stage-advance step of the completion path
 * (DESIGN.md, "Pipeline serving").
 *
 * ServingSystem is the single sink for terminal query outcomes. When a
 * finished query belongs to a pipeline it asks the stage router what
 * the outcome means before anything counts it. An *intermediate* stage
 * completion folds the stage's accuracy into the running product,
 * advances the stage cursor and retargets the query at the next
 * stage's family; the caller then forwards the still-live query and
 * stops there. A terminal outcome (final stage, or a drop anywhere)
 * folds the product into the query's accuracy and remaps it to the
 * entry family, so the collector's per-family metrics for the entry
 * family ARE the end-to-end pipeline metrics.
 *
 * Zero hot-path allocations: all counters are preallocated per
 * (pipeline, stage).
 */

#ifndef PROTEUS_PIPELINE_STAGE_ROUTER_H_
#define PROTEUS_PIPELINE_STAGE_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/query.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"

namespace proteus {

/** Per-stage counters kept by the stage router. */
struct StageStats {
    /** Stage completions handed to the next stage. */
    std::uint64_t forwarded = 0;
    /** Queries that terminated (dropped) at this stage. */
    std::uint64_t dropped = 0;
};

/** Per-pipeline end-to-end counters. */
struct PipelineStats {
    /** End-to-end completions within the e2e SLO. */
    std::uint64_t served = 0;
    /** End-to-end completions past the e2e deadline. */
    std::uint64_t served_late = 0;
    /** Queries dropped at any stage. */
    std::uint64_t dropped = 0;
    std::vector<StageStats> stages;
};

/** Named per-pipeline counters surfaced in RunResult. */
struct PipelineRunStats {
    std::string name;
    PipelineStats stats;
};

/** Advances finished pipeline queries from stage to stage. */
class StageRouter
{
  public:
    explicit StageRouter(const CompiledPipelines* pipelines);

    StageRouter(const StageRouter&) = delete;
    StageRouter& operator=(const StageRouter&) = delete;

    /** Attach the span tracer (nullptr = tracing off, the default). */
    void setTracer(obs::Tracer* tracer) { tracer_ = tracer; }

    /**
     * Step the finished pipeline query @p query.
     *
     * @return true when it completed an intermediate stage and now
     *         targets the next one (the caller forwards it); false
     *         when the outcome is terminal and rewritten end to end.
     */
    bool advance(Query* query);

    /** @return per-stage counters of pipeline @p p. */
    const std::vector<StageStats>& stages(PipelineId p) const
    {
        return stages_[p];
    }

    /** @return stage completions forwarded across all pipelines. */
    std::uint64_t forwarded() const { return forwarded_; }

  private:
    const CompiledPipelines* pipelines_;
    obs::Tracer* tracer_ = nullptr;
    std::vector<std::vector<StageStats>> stages_;
    std::uint64_t forwarded_ = 0;
};

}  // namespace proteus

#endif  // PROTEUS_PIPELINE_STAGE_ROUTER_H_
