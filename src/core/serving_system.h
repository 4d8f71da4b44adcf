/**
 * @file
 * ServingSystem: the public façade assembling the full Proteus stack
 * (Fig. 2) on the discrete-event simulator — controller with resource
 * manager, one load balancer per registered application, one worker
 * per device with the configured adaptive-batching policy, and the
 * metrics pipeline.
 *
 * Completion path: the system is the one QueryObserver every worker
 * and load balancer reports to. Arrivals go straight to the metrics
 * collector. A terminal outcome takes one fixed route: the pipeline
 * stage step (an intermediate hop is forwarded to the next stage and
 * goes no further), then the metrics collector, then the tail
 * reservoir when observability is on, and finally the query's pool
 * slot is released.
 *
 * Usage:
 *   Cluster cluster = paperCluster();
 *   ModelRegistry registry = paperRegistry();
 *   SystemConfig config;                       // Proteus defaults
 *   ServingSystem system(&cluster, &registry, config);
 *   RunResult result = system.run(trace);
 *
 * A ServingSystem instance executes exactly one trace.
 */

#ifndef PROTEUS_CORE_SERVING_SYSTEM_H_
#define PROTEUS_CORE_SERVING_SYSTEM_H_

#include <memory>
#include <vector>

#include "cluster/device.h"
#include "common/alloc/object_pool.h"
#include "common/alloc/scratch_vector.h"
#include "core/allocation.h"
#include "core/config.h"
#include "core/controller.h"
#include "core/ilp_allocator.h"
#include "core/router.h"
#include "core/worker.h"
#include "faults/fault_injector.h"
#include "metrics/collector.h"
#include "models/cost_model.h"
#include "models/model.h"
#include "models/profiler.h"
#include "obs/exporter.h"
#include "obs/lineage.h"
#include "obs/metrics_registry.h"
#include "pipeline/pipeline.h"
#include "pipeline/stage_router.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace proteus {

/** Outcome of one trace-driven run. */
struct RunResult {
    RunSummary summary;
    std::vector<IntervalSnapshot> timeline;
    /** Cumulative per-family counters (Fig. 9 breakdown). */
    std::vector<IntervalCounters> family_totals;
    /** Number of plans applied by the controller. */
    int reallocations = 0;
    /** Mean completed batch size across all workers. */
    double mean_batch_size = 0.0;
    /** Queries shed at the routers (subset of dropped). */
    std::uint64_t shed = 0;
    /** Per-outage fault windows (empty on fault-free runs). */
    std::vector<FaultWindow> fault_windows;
    /** Fault events actually applied by the injector. */
    int faults_injected = 0;
    /** Stage completions forwarded between pipeline stages. */
    std::uint64_t forwarded = 0;
    /** Per-pipeline e2e counters (empty without pipelines). */
    std::vector<PipelineRunStats> pipelines;
};

/** Fully assembled inference-serving system on a simulated cluster. */
class ServingSystem : private QueryObserver
{
  public:
    /**
     * @param cluster, registry borrowed; must outlive the system.
     */
    ServingSystem(const Cluster* cluster, const ModelRegistry* registry,
                  SystemConfig config = {});

    ServingSystem(const ServingSystem&) = delete;
    ServingSystem& operator=(const ServingSystem&) = delete;
    ~ServingSystem();

    /**
     * Execute @p trace to completion and report metrics.
     *
     * @param planning_demand per-family QPS used for the initial
     *        provisioning (and, for Clipper, the permanent static
     *        plan). Empty = derived from the trace's first minute.
     */
    RunResult run(const Trace& trace,
                  std::vector<double> planning_demand = {});

    /**
     * Staged-run API — run() is beginRun(); advanceTo(horizon);
     * finishRun(). Splitting the phases lets callers (the alloc tests
     * and the events/sec bench) advance the clock in slices and meter
     * a steady window between warm-up and drain.
     *
     * @param trace borrowed; must stay alive until finishRun().
     * @return the drain horizon (trace end + SLO slack).
     */
    Time beginRun(const Trace& trace,
                  std::vector<double> planning_demand = {});

    /** Advance the virtual clock to @p at (clamped to the horizon). */
    void advanceTo(Time at);

    /** Drain, finalize metrics and assemble the result. */
    RunResult finishRun();

    /** @return queries currently live in the pool (in-flight). */
    std::size_t queriesInFlight() const { return query_pool_.in_use(); }

    /** @return the query pool's slot capacity (high-water mark). */
    std::size_t queryPoolCapacity() const
    {
        return query_pool_.capacity();
    }

    /** @return the event core (event counts of a metered window). */
    const Simulator& simulator() const { return sim_; }

    /** @return the profile store (Fig. 1 style inspection). */
    const ProfileStore& profiles() const { return profiles_; }

    /** @return the SLO of family @p f. */
    Duration slo(FamilyId f) const { return profiles_.slo(f); }

    /**
     * @return name tables (families, variants, pipeline stage maps)
     * for the trace exporter, so offline tools can label raw ids.
     */
    obs::TraceNameTables traceNames() const;

    /** @return the configured allocator (for overhead stats). */
    Allocator* allocator() { return allocator_.get(); }

    /** @return the plan currently in force. */
    const Allocation& currentPlan() const;

    /** @return the device health tracker (fault inspection). */
    const DeviceHealthTracker& health() const { return health_; }

    /** @return the fault injector (nullptr on fault-free runs). */
    const FaultInjector* faultInjector() const { return injector_.get(); }

    /**
     * @return the span tracer, or nullptr when tracing is disabled
     * (SystemConfig::obs.enabled unset).
     */
    const obs::Tracer* tracer() const { return tracer_.get(); }

    /** @return the metrics registry (always present; empty if off). */
    const obs::MetricsRegistry& metricsRegistry() const
    {
        return obs_registry_;
    }

    /**
     * @return the time-series recorder, or nullptr when observability
     * is disabled (SystemConfig::obs.enabled unset).
     */
    const obs::TimeSeriesRecorder* timeseries() const
    {
        return timeseries_.get();
    }

    /** @return the tail-exemplar reservoir (nullptr when obs is off). */
    const obs::TailReservoir* tailReservoir() const
    {
        return tail_reservoir_.get();
    }

  private:
    // QueryObserver: the single completion sink (see file comment).
    void onArrival(const Query& query) override;
    void onFinished(const Query& query) override;
    void onBatchDone(VariantId variant, std::size_t size) override;
    /** Drop the still-pending @p query now and report it. */
    void dropQuery(Query* query);

    void applyPlan(const Allocation& plan);
    void injectArrivals();
    void forwardQuery(Query* query);
    void registerTimeSeriesChannels();
    /** Count and trace the alarm crossing @p window just made. */
    void recordSloAlarm(FamilyId family, const obs::SloBurnWindow& window);
    std::unique_ptr<BatchingPolicy> makeBatchingPolicy() const;
    std::unique_ptr<Allocator> makeAllocator();
    std::vector<double> demandEstimate() const;

    const Cluster* cluster_;
    const ModelRegistry* registry_;
    SystemConfig config_;

    Simulator sim_;
    CostModel cost_;
    ProfileStore profiles_;
    /** Compiled pipeline DAGs (empty = single-family serving). */
    CompiledPipelines pipelines_;
    MetricsCollector metrics_;
    obs::MetricsRegistry obs_registry_;
    std::unique_ptr<obs::Tracer> tracer_;
    std::unique_ptr<obs::TimeSeriesRecorder> timeseries_;
    /** Per-family SLO burn windows, advanced by the recorder's ticks. */
    std::vector<obs::SloBurnWindow> slo_windows_;
    /** Seeded reservoir of SLO-violating query ids (tail exemplars). */
    std::unique_ptr<obs::TailReservoir> tail_reservoir_;
    /** Pipeline stage step of onFinished (null without pipelines). */
    std::unique_ptr<StageRouter> stage_router_;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::unique_ptr<LoadBalancer>> balancers_;
    std::unique_ptr<Allocator> allocator_;
    std::unique_ptr<Controller> controller_;
    DeviceHealthTracker health_;
    std::unique_ptr<FaultInjector> injector_;

    /** Pooled query storage: finished slots recycle instead of the
     *  old grow-only deque, bounding memory on long traces. Ids stay
     *  monotonic via next_query_id_ (byte-identical to the deque). */
    alloc::ObjectPool<Query> query_pool_;
    QueryId next_query_id_ = 0;
    /** Per-family routing share list staging in applyPlan. */
    alloc::ScratchVector<LoadBalancer::WorkerShare> share_scratch_;
    /** Horizon-drain staging (collect → sort by id → finish). */
    alloc::ScratchVector<Query*> drain_scratch_;

    // Staged-run state (beginRun .. finishRun).
    const Trace* active_trace_ = nullptr;
    std::size_t trace_cursor_ = 0;
    /** Fires injectArrivals() at the next trace event. */
    TimerId arrival_timer_ = 0;
    Time horizon_ = kNoTime;

    bool first_apply_ = true;
    bool ran_ = false;
    bool finished_ = false;
};

}  // namespace proteus

#endif  // PROTEUS_CORE_SERVING_SYSTEM_H_
