/**
 * @file
 * Experiment configuration: which allocator and batching policy to
 * run, SLO settings and control-loop timing. Mirrors the JSON config
 * of the paper's artifact (model_allocation: ilp / infaas_v2 /
 * clipper / sommelier; batching: accscale / aimd / nexus).
 */

#ifndef PROTEUS_CORE_CONFIG_H_
#define PROTEUS_CORE_CONFIG_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "faults/fault_plan.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"

namespace proteus {

/** Resource-allocation policies available to a ServingSystem. */
enum class AllocatorKind {
    ProteusIlp,      ///< the paper's MILP resource manager ("ilp")
    InfaasAccuracy,  ///< greedy INFaaS-Accuracy ("infaas_v2")
    ClipperHT,       ///< static, least accurate variants ("clipper")
    ClipperHA,       ///< static, most accurate variants
    Sommelier,       ///< selection-only, placement frozen ("sommelier")
    ProteusNoMS,     ///< ablation §6.5: without model selection
    ProteusNoQA,     ///< ablation §6.5: without query assignment
};

/** Batching policies available to a ServingSystem. */
enum class BatchingKind {
    Proteus,         ///< proactive non-work-conserving ("accscale")
    ClipperAimd,     ///< reactive AIMD ("aimd")
    NexusEarlyDrop,  ///< proactive work-conserving ("nexus")
    StaticOne,       ///< fixed batch of one (ablation w/o AB)
};

/** @return a printable name for @p kind. */
const char* toString(AllocatorKind kind);

/** @return a printable name for @p kind. */
const char* toString(BatchingKind kind);

/** Full experiment configuration. */
struct SystemConfig {
    AllocatorKind allocator = AllocatorKind::ProteusIlp;
    BatchingKind batching = BatchingKind::Proteus;

    /** SLO = multiplier x (fastest variant, CPU, batch 1); §6.1.2. */
    double slo_multiplier = 2.0;

    /** Periodic re-allocation interval (paper: 30 s). */
    Duration control_period = seconds(30.0);
    /** Demand headroom applied to estimates when planning. */
    double planning_headroom = 1.35;
    /** Monitor burst alarm threshold over planned capacity. */
    double burst_threshold = 1.2;
    /** Metrics snapshot interval (timeseries granularity). */
    Duration snapshot_interval = seconds(10.0);

    /**
     * Deterministic work budget per MILP solve (simplex iterations;
     * 0 disables). Binds before the wall clock so truncated solves
     * return the same incumbent regardless of machine load.
     */
    std::int64_t milp_work_budget = 2000000;
    /** Wall-clock backstop per MILP solve inside the allocator. */
    double milp_time_limit_sec = 10.0;

    /** Multiplicative execution-latency jitter (0 = deterministic). */
    double latency_jitter_frac = 0.0;
    /** Seed for all stochastic pieces of the run. */
    std::uint64_t seed = 1;

    /**
     * Fault-injection plan (empty = fault-free run). Scripted and
     * seeded-random supply shocks executed by the FaultInjector; see
     * DESIGN.md, "Fault model".
     */
    FaultPlan faults;

    /**
     * Pipeline serving (DESIGN.md, "Pipeline serving"): DAGs of model
     * families with end-to-end SLOs. Empty = single-family serving,
     * byte-identical to the pre-pipeline system.
     */
    std::vector<PipelineSpec> pipelines;
    /**
     * Plan per-stage budgets jointly across each pipeline (enumerate
     * variant combinations, split the e2e SLO proportionally to the
     * winner's needs). false = per-stage-independent baseline: equal
     * split, each stage provisioned in isolation.
     */
    bool pipeline_joint_planning = true;

    /**
     * Observability (DESIGN.md, "Observability"): per-query span
     * tracing into a preallocated ring buffer plus solver/controller
     * instrumentation in the metrics registry. Off by default; the
     * disabled hot path costs one null-pointer test per hook.
     */
    obs::ObsOptions obs;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_CONFIG_H_
