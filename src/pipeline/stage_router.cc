#include "pipeline/stage_router.h"

#include "common/logging.h"

namespace proteus {

StageRouter::StageRouter(const CompiledPipelines* pipelines)
    : pipelines_(pipelines)
{
    PROTEUS_ASSERT(pipelines != nullptr && !pipelines->empty(),
                   "stage router without pipelines");
    stages_.resize(pipelines->size());
    for (PipelineId p = 0; p < pipelines->size(); ++p)
        stages_[p].resize(pipelines->pipeline(p).stages.size());
}

bool
StageRouter::advance(Query* query)
{
    const CompiledPipeline& pipe = pipelines_->pipeline(query->pipeline);
    std::vector<StageStats>& stages = stages_[query->pipeline];
    const bool completed = query->status == QueryStatus::Served ||
                           query->status == QueryStatus::ServedLate;

    if (completed && query->stage < query->last_stage) {
        // Intermediate completion: fold this stage's accuracy into
        // the running product, advance the cursor and retarget at the
        // next stage's family. The query is still in flight.
        ++stages[query->stage].forwarded;
        ++forwarded_;
        query->acc_product *= query->accuracy / 100.0;
        ++query->stage;
        query->family = pipe.stages[query->stage].family;
        query->status = QueryStatus::Pending;
        query->accuracy = 0.0;
        query->served_by = kInvalidId;
        if (tracer_) {
            obs::LinkRecord link;
            link.kind = obs::LinkKind::StageHandoff;
            link.at = query->completion;
            link.from = query->id;
            link.to = query->stage;
            link.aux = query->pipeline;
            tracer_->recordLink(link);
        }
        return true;
    }

    // Terminal: e2e accuracy is the product across stages (0 on a
    // drop), and the query is remapped to the entry family so the
    // per-family sinks downstream report end-to-end numbers.
    if (completed) {
        query->accuracy =
            100.0 * query->acc_product * (query->accuracy / 100.0);
    } else {
        query->accuracy = 0.0;
        ++stages[query->stage].dropped;
    }
    query->family = pipe.stages.front().family;
    return false;
}

}  // namespace proteus
