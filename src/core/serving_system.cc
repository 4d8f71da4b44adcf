#include "core/serving_system.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "baselines/aimd_batching.h"
#include "common/alloc/alloc_counter.h"
#include "baselines/clipper.h"
#include "baselines/infaas.h"
#include "baselines/nexus_batching.h"
#include "baselines/sommelier.h"
#include "common/logging.h"
#include "core/batching.h"
#include "pipeline/planner.h"

namespace proteus {

namespace {

/** Size of the seeded reservoir of SLO-violating exemplar queries. */
constexpr std::size_t kTailExemplars = 32;

}  // namespace

const char*
toString(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::ProteusIlp: return "proteus";
      case AllocatorKind::InfaasAccuracy: return "infaas-accuracy";
      case AllocatorKind::ClipperHT: return "clipper-ht";
      case AllocatorKind::ClipperHA: return "clipper-ha";
      case AllocatorKind::Sommelier: return "sommelier";
      case AllocatorKind::ProteusNoMS: return "proteus-w/o-ms";
      case AllocatorKind::ProteusNoQA: return "proteus-w/o-qa";
    }
    return "unknown";
}

const char*
toString(BatchingKind kind)
{
    switch (kind) {
      case BatchingKind::Proteus: return "proteus-accscale";
      case BatchingKind::ClipperAimd: return "clipper-aimd";
      case BatchingKind::NexusEarlyDrop: return "nexus-early-drop";
      case BatchingKind::StaticOne: return "static-1";
    }
    return "unknown";
}

ServingSystem::ServingSystem(const Cluster* cluster,
                             const ModelRegistry* registry,
                             SystemConfig config)
    : cluster_(cluster),
      registry_(registry),
      config_(config),
      cost_(*cluster, *registry),
      profiles_(profileModels(*registry, *cluster, cost_,
                              ProfilerOptions{config.slo_multiplier})),
      metrics_(&sim_, registry->numFamilies(),
               config.snapshot_interval),
      health_(cluster->numDevices())
{
    // Pipeline serving: compile the DAGs, derive end-to-end SLOs,
    // carve per-stage budgets and re-profile the stage families under
    // them — before the allocator reads profile capacity.
    if (!config_.pipelines.empty()) {
        std::string perr;
        if (!compilePipelines(config_.pipelines, *registry_,
                              &pipelines_, &perr)) {
            PROTEUS_FATAL("pipeline config: ", perr);
        }
        PipelinePlannerOptions popt;
        popt.slo_multiplier = config_.slo_multiplier;
        popt.joint = config_.pipeline_joint_planning;
        planPipelineBudgets(&pipelines_, *registry_, *cluster_, cost_,
                            popt);
        for (const CompiledPipeline& pipe : pipelines_.pipelines()) {
            for (const CompiledStage& st : pipe.stages) {
                reprofileFamilySlo(&profiles_, *registry_, *cluster_,
                                   cost_, st.family, st.budget);
            }
        }
    }

    allocator_ = makeAllocator();

    // Observability: one tracer for the whole system, created only
    // when enabled so every hook below degrades to a null-pointer
    // test on the hot path. The time-series recorder, SLO alarm
    // included, is strictly passive (it observes, never steers), so
    // the simulated results are identical with observability on or
    // off.
    if (config_.obs.enabled) {
        tracer_ = std::make_unique<obs::Tracer>(config_.obs.ring_capacity,
                                                config_.obs.link_capacity);
        tail_reservoir_ = std::make_unique<obs::TailReservoir>(
            kTailExemplars, config_.seed);
        obs::TimeSeriesOptions ts_opts;
        ts_opts.sample_interval = config_.obs.sample_interval;
        timeseries_ =
            std::make_unique<obs::TimeSeriesRecorder>(&sim_, ts_opts);
    }
    // Stage router: the pipeline step of onFinished. The hop itself
    // is deferred one zero-delay event in forwardQuery() because the
    // completion that triggers it is still inside Worker::finishBatch.
    if (!pipelines_.empty()) {
        stage_router_ = std::make_unique<StageRouter>(&pipelines_);
        stage_router_->setTracer(tracer_.get());
    }

    // Every worker and load balancer reports to this system.
    QueryObserver* sink = this;

    // Timers, sized once: the arrival timer, each worker's wake-up
    // and batch completion, and the controller, metrics and
    // time-series periodics.
    sim_.reserveTimers(2 * cluster_->numDevices() + 4);
    arrival_timer_ = sim_.addTimer([this] { injectArrivals(); });

    // One worker per device. Requeued queries (variant swaps, stale
    // routing) are re-submitted through the family's load balancer on
    // the next simulator step to avoid same-instant routing loops.
    for (const Device& dev : cluster_->devices()) {
        auto requeue = [this](Query* q) {
            sim_.scheduleAfter(millis(1.0), [this, q] {
                if (q->finished())
                    return;
                if (sim_.now() > q->deadline) {
                    dropQuery(q);
                    return;
                }
                // Resubmit without re-counting the arrival.
                balancers_[q->family]->resubmit(q);
            });
        };
        auto worker = std::make_unique<Worker>(
            &sim_, cluster_, dev.id, registry_, &cost_, &profiles_,
            sink, requeue, config_.latency_jitter_frac,
            config_.seed);
        worker->setBatchingPolicy(makeBatchingPolicy());
        worker->setTracer(tracer_.get());
        worker->setHealthTracker(&health_);
        worker->setLoadFailureAlarm([this](DeviceId) {
            // A failed load leaves planned capacity unhosted: replan.
            controller_->notifyCapacityChange();
        });
        workers_.push_back(std::move(worker));
    }

    // One load balancer per registered application (query type).
    for (FamilyId f = 0; f < registry_->numFamilies(); ++f) {
        auto lb = std::make_unique<LoadBalancer>(&sim_, f, sink);
        lb->setTracer(tracer_.get());
        balancers_.push_back(std::move(lb));
    }

    controller_ = std::make_unique<Controller>(
        &sim_, allocator_.get(), [this] { return demandEstimate(); },
        [this](const Allocation& plan) { applyPlan(plan); },
        ControllerOptions{config_.control_period});

    controller_->setAvailabilityProbe(
        [this] { return health_.downMask(); });

    if (config_.obs.enabled)
        controller_->setObs(tracer_.get(), &obs_registry_);

    for (auto& lb : balancers_) {
        lb->setBurstAlarm([this] { controller_->requestReallocation(); },
                          config_.burst_threshold);
    }

    // Fault injection: the injector owns scheduling and the health
    // state machine; these hooks apply the consequences to the data
    // path (workers), the control path (failure alarms) and the
    // metrics pipeline (fault windows).
    if (!config_.faults.empty()) {
        FaultHooks hooks;
        hooks.on_crash = [this](DeviceId d) {
            double lost = 0.0;
            if (auto v = workers_[d]->hostedVariant()) {
                lost = profiles_.get(*v, workers_[d]->deviceType())
                           .peak_qps;
            }
            metrics_.onDeviceDown(d, lost);
            workers_[d]->crash();
            controller_->notifyCapacityChange();
        };
        hooks.on_recovery = [this](DeviceId d) {
            metrics_.onDeviceUp(d);
            workers_[d]->recover();
            controller_->notifyCapacityChange();
        };
        hooks.on_stall = [this](DeviceId d, double factor,
                                Duration window) {
            workers_[d]->setStall(factor, window);
        };
        hooks.on_load_fail = [this](DeviceId d) {
            workers_[d]->failNextLoad();
        };
        injector_ = std::make_unique<FaultInjector>(
            &sim_, &health_, std::move(hooks), config_.faults);
    }

    if (timeseries_)
        registerTimeSeriesChannels();
}

ServingSystem::~ServingSystem() = default;

void
ServingSystem::registerTimeSeriesChannels()
{
    obs::TimeSeriesRecorder* ts = timeseries_.get();

    // Per-device utilization (busy-time fraction of the interval) and
    // instantaneous queue depth.
    for (DeviceId d = 0; d < workers_.size(); ++d) {
        Worker* w = workers_[d].get();
        const std::string prefix = "device." + std::to_string(d) + ".";
        ts->addCounterRate(prefix + "util",
                           [w] { return toSeconds(w->busyTime()); });
        ts->addProbe(prefix + "queue", [w] {
            return static_cast<double>(w->queueLength());
        });
    }

    // Every family's SLO window spans the same whole number of ticks;
    // the alarm counters exist (at zero) from the start.
    const std::size_t slo_ticks = static_cast<std::size_t>(
        config_.obs.slo_window / config_.obs.sample_interval);
    obs_registry_.counter("slo.alarms_raised");
    obs_registry_.counter("slo.alarms_cleared");

    // Per-family rates derived from the collector's live cumulative
    // counters, plus instantaneous depth/quality probes.
    for (FamilyId f = 0; f < registry_->numFamilies(); ++f) {
        const std::string prefix = "family." + std::to_string(f) + ".";
        const MetricsCollector* mc = &metrics_;
        ts->addCounterRate(prefix + "arrival_qps", [mc, f] {
            return static_cast<double>(mc->familyTotals()[f].arrivals);
        });
        ts->addCounterRate(prefix + "throughput_qps", [mc, f] {
            return static_cast<double>(mc->familyTotals()[f].completed());
        });
        ts->addCounterRate(prefix + "violation_qps", [mc, f] {
            return static_cast<double>(
                mc->familyTotals()[f].violations());
        });
        LoadBalancer* lb = balancers_[f].get();
        ts->addCounterRate(prefix + "shed_qps", [lb] {
            return static_cast<double>(lb->shed());
        });
        ts->addProbe(prefix + "queue", [this, f] {
            double depth = 0.0;
            for (const auto& w : workers_) {
                if (auto v = w->hostedVariant()) {
                    if (registry_->familyOf(*v) == f)
                        depth += static_cast<double>(w->queueLength());
                }
            }
            return depth;
        });
        // Interval mean batch size over the workers currently hosting
        // the family: ratio of executed-query/batch deltas. Workers
        // that swapped families mid-interval contribute a few foreign
        // batches to the delta — telemetry-grade, not an invariant.
        auto batch_last =
            std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
        ts->addProbe(prefix + "batch_size", [this, f, batch_last] {
            std::uint64_t queries = 0, batches = 0;
            for (const auto& w : workers_) {
                if (auto v = w->hostedVariant()) {
                    if (registry_->familyOf(*v) == f) {
                        queries += w->batchedQueries();
                        batches += w->batches();
                    }
                }
            }
            const std::uint64_t dq = queries - batch_last->first;
            const std::uint64_t db = batches - batch_last->second;
            *batch_last = {queries, batches};
            return db ? static_cast<double>(dq) /
                            static_cast<double>(db)
                      : 0.0;
        });
        // Interval mean served accuracy: ratio of the collector's
        // cumulative accuracy-sum/completed deltas (exact).
        auto acc_last = std::make_shared<std::pair<double, double>>();
        ts->addProbe(prefix + "accuracy", [mc, f, acc_last] {
            const IntervalCounters& t = mc->familyTotals()[f];
            const double sum = t.accuracy_sum;
            const double done = static_cast<double>(t.completed());
            const double dsum = sum - acc_last->first;
            const double ddone = done - acc_last->second;
            *acc_last = {sum, done};
            return ddone > 0.0 ? dsum / ddone : 0.0;
        });
        // Trailing-window violation ratio and burn-rate alarm over the
        // collector's totals, advanced here at each tick; burn_rate is
        // registered next, so it reads the window this tick just left.
        auto slo = std::make_shared<obs::SloBurnWindow>(slo_ticks);
        ts->addProbe(prefix + "violation_ratio_w", [this, mc, f, slo] {
            const IntervalCounters& t = mc->familyTotals()[f];
            if (slo->tick(t.completed() + t.dropped, t.violations()) !=
                obs::SloBurnWindow::Crossing::None)
                recordSloAlarm(f, *slo);
            return slo->ratio();
        });
        ts->addProbe(prefix + "burn_rate",
                     [slo] { return slo->burnRate(); });
    }

    // Cluster health and solver budget consumption. The solver gauges
    // are sampled from the registry, fed by the controller at every
    // decision (Controller::noteSolve).
    ts->addProbe("cluster.devices_down", [this] {
        return static_cast<double>(metrics_.devicesDown());
    });
    const obs::Gauge* nodes = obs_registry_.gauge("solver.last_nodes");
    ts->addProbe("solver.last_nodes",
                 [nodes] { return nodes->value(); });
    const obs::Gauge* iters =
        obs_registry_.gauge("solver.last_simplex_iters");
    ts->addProbe("solver.last_simplex_iters",
                 [iters] { return iters->value(); });
    const obs::Gauge* frac = obs_registry_.gauge("solver.work_frac");
    ts->addProbe("solver.work_frac",
                 [frac] { return frac->value(); });

    // Allocation health: live pooled queries. Returning to the same
    // baseline between epochs is the no-leak invariant (ISSUE 6).
    ts->addProbe("alloc.pool_in_use", [this] {
        return static_cast<double>(query_pool_.in_use());
    });

    // Pipeline channels (registered only when pipelines exist, so
    // single-family timelines keep their exact channel set): per-
    // pipeline e2e completion rates, read from the entry family's
    // collector totals, plus per-stage forward/drop rates.
    if (stage_router_) {
        StageRouter* sr = stage_router_.get();
        const MetricsCollector* mc = &metrics_;
        for (PipelineId p = 0; p < pipelines_.size(); ++p) {
            const std::string prefix =
                "pipeline." + std::to_string(p) + ".";
            const CompiledPipeline& pipe = pipelines_.pipeline(p);
            const FamilyId entry = pipe.stages.front().family;
            ts->addCounterRate(prefix + "e2e_served_qps", [mc, entry] {
                return static_cast<double>(
                    mc->familyTotals()[entry].served);
            });
            ts->addCounterRate(prefix + "e2e_late_qps", [mc, entry] {
                return static_cast<double>(
                    mc->familyTotals()[entry].served_late);
            });
            ts->addCounterRate(prefix + "e2e_dropped_qps", [mc, entry] {
                return static_cast<double>(
                    mc->familyTotals()[entry].dropped);
            });
            const std::size_t stages = pipe.stages.size();
            for (std::size_t s = 0; s < stages; ++s) {
                const std::string sp =
                    prefix + "stage." + std::to_string(s) + ".";
                ts->addCounterRate(sp + "forward_qps", [sr, p, s] {
                    return static_cast<double>(
                        sr->stages(p)[s].forwarded);
                });
                ts->addCounterRate(sp + "drop_qps", [sr, p, s] {
                    return static_cast<double>(sr->stages(p)[s].dropped);
                });
            }
        }
    }
}

void
ServingSystem::recordSloAlarm(FamilyId family,
                              const obs::SloBurnWindow& window)
{
    obs::Counter* raised = obs_registry_.counter("slo.alarms_raised");
    obs::Counter* cleared = obs_registry_.counter("slo.alarms_cleared");
    (window.alarm() ? raised : cleared)->inc();
    obs::SpanRecord span;
    span.kind = obs::SpanKind::SloAlarm;
    span.start = sim_.now();
    span.end = span.start;
    span.id = raised->value() + cleared->value();
    span.a = family;
    span.v0 = window.alarm() ? 1 : 0;
    span.v1 = std::lround(window.burnRate() * 1000.0);
    span.v2 = static_cast<std::int64_t>(window.windowFinished());
    tracer_->record(span);
}

std::unique_ptr<BatchingPolicy>
ServingSystem::makeBatchingPolicy() const
{
    switch (config_.batching) {
      case BatchingKind::Proteus:
        return std::make_unique<ProteusBatching>();
      case BatchingKind::ClipperAimd:
        return std::make_unique<AimdBatching>();
      case BatchingKind::NexusEarlyDrop:
        return std::make_unique<NexusBatching>();
      case BatchingKind::StaticOne:
        return std::make_unique<StaticBatching>(1);
    }
    PROTEUS_PANIC("unhandled batching kind");
}

std::unique_ptr<Allocator>
ServingSystem::makeAllocator()
{
    IlpAllocatorOptions ilp;
    ilp.milp_work_budget = config_.milp_work_budget;
    ilp.milp_time_limit_sec = config_.milp_time_limit_sec;
    ilp.planning_headroom = config_.planning_headroom;
    switch (config_.allocator) {
      case AllocatorKind::ProteusIlp:
        return std::make_unique<IlpAllocator>(registry_, cluster_,
                                              &profiles_, ilp);
      case AllocatorKind::ProteusNoMS:
        ilp.variant_filter = mostAccurateOnly(registry_);
        return std::make_unique<IlpAllocator>(registry_, cluster_,
                                              &profiles_, ilp);
      case AllocatorKind::ProteusNoQA:
        ilp.uniform_assignment = true;
        return std::make_unique<IlpAllocator>(registry_, cluster_,
                                              &profiles_, ilp);
      case AllocatorKind::InfaasAccuracy:
        return std::make_unique<InfaasAllocator>(
            registry_, cluster_, &profiles_, config_.planning_headroom);
      case AllocatorKind::ClipperHT:
        return std::make_unique<ClipperAllocator>(
            registry_, cluster_, &profiles_,
            ClipperMode::HighThroughput, ilp);
      case AllocatorKind::ClipperHA:
        return std::make_unique<ClipperAllocator>(
            registry_, cluster_, &profiles_,
            ClipperMode::HighAccuracy, ilp);
      case AllocatorKind::Sommelier:
        ilp.decision_delay = seconds(1.0);
        return std::make_unique<SommelierAllocator>(
            registry_, cluster_, &profiles_, ilp);
    }
    PROTEUS_PANIC("unhandled allocator kind");
}

std::vector<double>
ServingSystem::demandEstimate() const
{
    std::vector<double> qps(registry_->numFamilies(), 0.0);
    for (std::size_t f = 0; f < balancers_.size(); ++f)
        qps[f] = balancers_[f]->windowQps();
    return qps;
}

void
ServingSystem::applyPlan(const Allocation& plan)
{
    // Hosting changes first (loads start immediately) ... Each worker
    // is stamped with the decision number this plan came from, so the
    // batches it executes (and the loads it starts) link back to the
    // controller epoch that sized them.
    const std::uint64_t epoch =
        controller_ ? controller_->appliedDecision() : 0;
    for (DeviceId d = 0; d < workers_.size(); ++d) {
        workers_[d]->setPlanEpoch(epoch);
        workers_[d]->hostVariant(plan.hosting[d], first_apply_);
    }

    // ... then the query-assignment policy for every application.
    // setRouting copies the shares, so one reused list stages them all.
    for (FamilyId f = 0; f < balancers_.size(); ++f) {
        share_scratch_.clear();
        for (const DeviceShare& s : plan.routing[f])
            share_scratch_.push_back({workers_[s.device].get(), s.weight});
        balancers_[f]->setRouting(share_scratch_.view());
        // Burst alarms compare observed demand against the demand the
        // plan was sized for, so the controller reacts before the
        // provisioned headroom is exhausted.
        double basis = f < plan.planned_demand.size()
                           ? plan.planned_demand[f]
                           : 0.0;
        if (basis <= 0.0 && f < plan.family_capacity.size())
            basis = plan.family_capacity[f];
        balancers_[f]->setPlannedCapacity(basis);
    }
    first_apply_ = false;
}

const Allocation&
ServingSystem::currentPlan() const
{
    return controller_->current();
}

void
ServingSystem::injectArrivals()
{
    // Chained arrival injection on one timer, re-armed for the next
    // trace event each time. Queries draw recycled slots from the
    // pool; ids stay monotonic via the dedicated counter
    // (byte-identical to the old grow-only arena).
    const auto& events = active_trace_->events();
    while (trace_cursor_ < events.size() &&
           events[trace_cursor_].at <= sim_.now()) {
        const TraceEvent& e = events[trace_cursor_++];
        Query* q = query_pool_.acquire();
        *q = Query{};  // reset whatever the previous occupant left
        q->id = ++next_query_id_;
        q->family = e.family;
        q->arrival = sim_.now();
        q->deadline = sim_.now() + profiles_.slo(e.family);
        if (!pipelines_.empty()) {
            const PipelineId p = pipelines_.pipelineOf(e.family);
            if (p != kInvalidId) {
                const CompiledPipeline& pipe = pipelines_.pipeline(p);
                q->pipeline = p;
                // Traces normally address the entry family; an
                // arrival at a later stage's family enters there.
                q->stage = pipelines_.stageOf(e.family);
                q->last_stage =
                    static_cast<StageIndex>(pipe.stages.size() - 1);
                // One deadline for the whole traversal: the e2e SLO.
                q->deadline = sim_.now() + pipe.slo;
            }
        }
        balancers_[e.family]->submit(q);
    }
    if (trace_cursor_ < events.size())
        sim_.armTimer(arrival_timer_, events[trace_cursor_].at);
}

void
ServingSystem::forwardQuery(Query* query)
{
    // Deferred one zero-delay event: the completion that triggered
    // this hop is still inside Worker::finishBatch, which owns the
    // in-flight batch state. Same-time FIFO keeps runs deterministic.
    sim_.scheduleAfter(0, [this, query] {
        balancers_[query->family]->forward(query);
    });
}

void
ServingSystem::onArrival(const Query& query)
{
    // Arrivals happen once, at the entry stage; forwarded hops enter
    // through LoadBalancer::forward(), which does not re-announce.
    metrics_.onArrival(query);
}

void
ServingSystem::onFinished(const Query& query)
{
    // Every query lives in the pool and its lifecycle ends here, so
    // the sink may rewrite it (pipeline hops) and release its slot.
    Query* q = const_cast<Query*>(&query);  // NOLINT-PROTEUS(S1): the pool owns the non-const query; reporters hand the sink a const ref
    if (q->pipeline != kInvalidId && stage_router_->advance(q)) {
        forwardQuery(q);
        return;
    }
    metrics_.onFinished(*q);
    // A pipeline query is terminal and remapped to its entry family
    // by now, so the tail reservoir sees end-to-end outcomes only.
    if (tail_reservoir_)
        tail_reservoir_->offer(q->id, q->violatedSlo());
    // After every sink has seen the outcome the slot is recycled; this
    // is what keeps memory bounded on long traces.
    query_pool_.release(q);
}

void
ServingSystem::dropQuery(Query* query)
{
    query->status = QueryStatus::Dropped;
    query->completion = sim_.now();
    if (tracer_)
        traceQueryEnd(tracer_.get(), *query);
    onFinished(*query);
}

Time
ServingSystem::beginRun(const Trace& trace,
                        std::vector<double> planning_demand)
{
    PROTEUS_ASSERT(!ran_, "a ServingSystem runs exactly one trace");
    ran_ = true;

    if (planning_demand.empty()) {
        Time window = std::min<Time>(seconds(60.0),
                                     std::max<Time>(trace.endTime(), 1));
        planning_demand =
            trace.demand(registry_->numFamilies(), 0, window);
    }
    PROTEUS_ASSERT(planning_demand.size() == registry_->numFamilies(),
                   "planning demand size mismatch");

    // Demand propagation: every query admitted at a pipeline's entry
    // stage eventually reaches each downstream stage, but the trace
    // only carries entry-family arrivals. Fold the entry demand into
    // the downstream families so the allocator provisions them too.
    for (const CompiledPipeline& pipe : pipelines_.pipelines()) {
        const double entry =
            planning_demand[pipe.stages.front().family];
        for (std::size_t s = 1; s < pipe.stages.size(); ++s) {
            double& d = planning_demand[pipe.stages[s].family];
            d = std::max(d, entry);
        }
    }

    metrics_.start();
    if (timeseries_)
        timeseries_->start();
    controller_->start(planning_demand);

    active_trace_ = &trace;
    trace_cursor_ = 0;
    sim_.reserveEvents(64);
    if (!trace.events().empty())
        sim_.armTimer(arrival_timer_, trace.events().front().at);

    // Run past the end of the trace so in-flight queries drain; the
    // controller's periodic task keeps the event queue non-empty, so
    // a horizon is required.
    Duration max_slo = 0;
    for (FamilyId f = 0; f < registry_->numFamilies(); ++f)
        max_slo = std::max(max_slo, profiles_.slo(f));
    horizon_ = trace.endTime() + 4 * max_slo + seconds(5.0);
    if (injector_)
        injector_->arm(horizon_);
    return horizon_;
}

void
ServingSystem::advanceTo(Time at)
{
    PROTEUS_ASSERT(ran_ && !finished_, "advanceTo outside a run");
    sim_.run(std::min(at, horizon_));
}

RunResult
ServingSystem::finishRun()
{
    PROTEUS_ASSERT(ran_ && !finished_, "finishRun outside a run");
    finished_ = true;

    // Account for anything still stuck in queues at the horizon:
    // collect the still-live pool slots, then finish them in id order
    // — the exact order the old insertion-ordered arena walked them.
    drain_scratch_.clear();
    query_pool_.forEachMutable([this](Query& q) {
        if (!q.finished())
            drain_scratch_.push_back(&q);
    });
    std::sort(drain_scratch_.begin(), drain_scratch_.end(),
              [](const Query* a, const Query* b) { return a->id < b->id; });
    for (Query* q : drain_scratch_)
        dropQuery(q);
    drain_scratch_.clear();
    // Every query the trace injected must be back in the pool now;
    // anything still out is a lifecycle leak.
    PROTEUS_ASSERT(query_pool_.in_use() == 0,
                   "query pool leak: ", query_pool_.in_use(),
                   " slots still in use after drain");
    metrics_.finalize();
    if (timeseries_)
        timeseries_->finalize();

    // End-of-run registry summary (counters are deterministic; the
    // wall-time histograms were fed live by the controller).
    if (config_.obs.enabled) {
        const RunSummary& sum = metrics_.summary();
        obs_registry_.counter("queries.arrivals")->inc(sum.arrivals);
        obs_registry_.counter("queries.served")->inc(sum.served);
        obs_registry_.counter("queries.served_late")->inc(sum.served_late);
        obs_registry_.counter("queries.dropped")->inc(sum.dropped);
        obs_registry_.gauge("trace.spans_recorded")
            ->set(tracer_ ? static_cast<double>(tracer_->recorded()) : 0.0);
        obs_registry_.gauge("trace.spans_dropped")
            ->set(tracer_ ? static_cast<double>(tracer_->dropped()) : 0.0);
        obs_registry_.gauge("trace.links_recorded")
            ->set(tracer_
                      ? static_cast<double>(tracer_->linksRecorded())
                      : 0.0);
        obs_registry_.gauge("trace.links_dropped")
            ->set(tracer_
                      ? static_cast<double>(tracer_->linksDropped())
                      : 0.0);
        // Allocation accounting: pool occupancy must be back to zero
        // (asserted above); capacity records the in-flight high-water
        // mark; heap_allocs is non-zero only when the counting
        // operator new is linked (tests/bench).
        obs_registry_.gauge("alloc.pool_in_use")
            ->set(static_cast<double>(query_pool_.in_use()));
        obs_registry_.gauge("alloc.pool_capacity")
            ->set(static_cast<double>(query_pool_.capacity()));
        obs_registry_.gauge("alloc.heap_allocs")
            ->set(static_cast<double>(alloc::heapAllocs()));
    }

    RunResult result;
    result.summary = metrics_.summary();
    result.timeline = metrics_.timeline();
    result.family_totals = metrics_.familyTotals();
    result.reallocations = controller_->reallocations();
    std::uint64_t batches = 0, batched = 0;
    for (const auto& w : workers_) {
        batches += w->batches();
        batched += w->batchedQueries();
    }
    result.mean_batch_size =
        batches ? static_cast<double>(batched) /
                      static_cast<double>(batches)
                : 0.0;
    for (const auto& lb : balancers_)
        result.shed += lb->shed();
    result.fault_windows = metrics_.faultWindows();
    if (injector_)
        result.faults_injected = injector_->injected();
    if (stage_router_) {
        result.forwarded = stage_router_->forwarded();
        for (PipelineId p = 0; p < pipelines_.size(); ++p) {
            const CompiledPipeline& pipe = pipelines_.pipeline(p);
            // Every query of the entry family is a query of this
            // pipeline (families are never shared, and every arrival
            // of a pipeline family is tagged), so its totals are the
            // pipeline's end-to-end outcomes.
            const IntervalCounters& e2e =
                result.family_totals[pipe.stages.front().family];
            PipelineRunStats prs;
            prs.name = pipe.name;
            prs.stats.served = e2e.served;
            prs.stats.served_late = e2e.served_late;
            prs.stats.dropped = e2e.dropped;
            prs.stats.stages = stage_router_->stages(p);
            result.pipelines.push_back(std::move(prs));
        }
    }
    return result;
}

RunResult
ServingSystem::run(const Trace& trace,
                   std::vector<double> planning_demand)
{
    const Time horizon = beginRun(trace, std::move(planning_demand));
    advanceTo(horizon);
    return finishRun();
}

obs::TraceNameTables
ServingSystem::traceNames() const
{
    obs::TraceNameTables names;
    names.families.reserve(registry_->numFamilies());
    for (FamilyId f = 0; f < registry_->numFamilies(); ++f)
        names.families.push_back(registry_->family(f).name);
    names.variants.reserve(registry_->numVariants());
    for (VariantId v = 0; v < registry_->numVariants(); ++v)
        names.variants.push_back(registry_->variant(v).name);
    for (const CompiledPipeline& pipe : pipelines_.pipelines()) {
        obs::TraceNameTables::Pipeline p;
        p.name = pipe.name;
        for (const CompiledStage& st : pipe.stages) {
            p.families.push_back(st.family);
            p.stages.push_back(st.name);
        }
        names.pipelines.push_back(std::move(p));
    }
    if (tail_reservoir_)
        names.tail_exemplars = tail_reservoir_->exemplars();
    return names;
}

}  // namespace proteus
