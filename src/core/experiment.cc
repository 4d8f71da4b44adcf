#include "core/experiment.h"

#include <fstream>
#include <limits>
#include <string>

#include "common/logging.h"
#include "obs/exporter.h"
#include "workload/generators.h"

namespace proteus {

AllocatorKind
allocatorKindFromName(const std::string& name)
{
    if (name == "ilp" || name == "proteus")
        return AllocatorKind::ProteusIlp;
    if (name == "infaas_v2" || name == "infaas")
        return AllocatorKind::InfaasAccuracy;
    if (name == "clipper_ht" || name == "clipper")
        return AllocatorKind::ClipperHT;
    if (name == "clipper_ha")
        return AllocatorKind::ClipperHA;
    if (name == "sommelier" || name == "ilp_no_mp")
        return AllocatorKind::Sommelier;
    if (name == "ilp_no_ms")
        return AllocatorKind::ProteusNoMS;
    if (name == "ilp_no_qa")
        return AllocatorKind::ProteusNoQA;
    PROTEUS_FATAL("unknown model_allocation algorithm: ", name);
}

BatchingKind
batchingKindFromName(const std::string& name)
{
    if (name == "accscale" || name == "proteus")
        return BatchingKind::Proteus;
    if (name == "aimd" || name == "clipper")
        return BatchingKind::ClipperAimd;
    if (name == "nexus")
        return BatchingKind::NexusEarlyDrop;
    if (name == "static" || name == "none")
        return BatchingKind::StaticOne;
    PROTEUS_FATAL("unknown batching algorithm: ", name);
}

namespace {

/** How config errors name the objects without an index. */
const char* const kTop = "the top-level config";
const char* const kCluster = "\"cluster\"";
const char* const kObs = "\"observability\"";

/** A device count: an integer in [0, INT_MAX]. */
int
deviceCountFromJson(const JsonValue& cluster, const char* key)
{
    return static_cast<int>(integerFromJson(
        cluster, kCluster, key, 0.0, 0.0, std::numeric_limits<int>::max()));
}

Cluster
clusterFromJson(const JsonValue& json)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    if (!json.has("cluster")) {
        cluster.addDevices(types.cpu, 20);
        cluster.addDevices(types.gtx1080ti, 10);
        cluster.addDevices(types.v100, 10);
        return cluster;
    }
    const JsonValue& c = json.at("cluster");
    rejectUnknownKeys(c, kCluster, {"cpu", "gtx1080ti", "v100"});
    cluster.addDevices(types.cpu, deviceCountFromJson(c, "cpu"));
    cluster.addDevices(types.gtx1080ti,
                       deviceCountFromJson(c, "gtx1080ti"));
    cluster.addDevices(types.v100, deviceCountFromJson(c, "v100"));
    if (cluster.numDevices() == 0)
        PROTEUS_FATAL("config cluster has no devices");
    return cluster;
}

ModelRegistry
registryFromJson(const JsonValue& json)
{
    std::string zoo = stringFromJson(json, kTop, "zoo", "paper");
    ModelRegistry reg;
    if (zoo == "paper") {
        for (const auto& fam : paperModelZoo())
            reg.registerFamily(fam);
    } else if (zoo == "mini") {
        for (const auto& fam : miniModelZoo())
            reg.registerFamily(fam);
    } else {
        PROTEUS_FATAL("unknown zoo: ", zoo, " (use \"paper\"/\"mini\")");
    }
    return reg;
}

std::vector<PipelineSpec>
pipelinesFromJson(const JsonValue& json)
{
    std::vector<PipelineSpec> specs;
    for (const JsonValue& p : arrayFromJson(json, kTop, "pipelines")) {
        const std::string where =
            "pipelines[" + std::to_string(specs.size()) + "]";
        rejectUnknownKeys(p, where,
                          {"name", "slo_sec", "slo_multiplier", "stages"});
        PipelineSpec spec;
        spec.name = stringFromJson(p, where, "name", "");
        if (spec.name.empty())
            PROTEUS_FATAL("pipeline entry is missing \"name\"");
        // 0 (the default) derives the SLO from the multiplier, and a 0
        // multiplier falls back to the top-level slo_multiplier.
        spec.slo = seconds(positiveFromJson(p, where, "slo_sec", 0.0, true));
        spec.slo_multiplier =
            positiveFromJson(p, where, "slo_multiplier", 0.0, true);
        if (!p.has("stages"))
            PROTEUS_FATAL("pipeline \"", spec.name,
                          "\" is missing \"stages\"");
        for (const JsonValue& s : arrayFromJson(p, where, "stages")) {
            const std::string stage_where =
                where + ".stages[" + std::to_string(spec.stages.size()) +
                "]";
            rejectUnknownKeys(s, stage_where, {"name", "family", "deps"});
            PipelineStageSpec stage;
            stage.name = stringFromJson(s, stage_where, "name", "");
            stage.family = stringFromJson(s, stage_where, "family", "");
            for (const JsonValue& d : arrayFromJson(s, stage_where, "deps")) {
                if (!d.isString())
                    PROTEUS_FATAL(stage_where, ".deps must list stage names");
                stage.deps.push_back(d.asString());
            }
            spec.stages.push_back(std::move(stage));
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

/**
 * @return the "process" key of @p w as an arrival process; @p where
 * names @p w.
 */
ArrivalProcess
arrivalProcessFromJson(const JsonValue& w, const std::string& where)
{
    const std::string process =
        stringFromJson(w, where, "process", "poisson");
    if (process == "uniform")
        return ArrivalProcess::Uniform;
    if (process == "poisson")
        return ArrivalProcess::Poisson;
    if (process == "gamma")
        return ArrivalProcess::Gamma;
    PROTEUS_FATAL("unknown arrival process: ", process);
}

Trace
traceFromJson(const JsonValue& json, const ModelRegistry& registry,
              const std::vector<PipelineSpec>& pipelines)
{
    const std::size_t num_families = registry.numFamilies();
    if (!json.has("workload"))
        PROTEUS_FATAL("config is missing the \"workload\" object");
    const JsonValue& w = json.at("workload");
    const std::string kind =
        stringFromJson(w, "\"workload\"", "kind", "diurnal");
    const std::string where = "\"workload\" (kind \"" + kind + "\")";
    if (kind == "file") {
        // A trace file has no randomness; "seed" is accepted because a
        // sweep's seed axis sets it on every job's workload.
        rejectUnknownKeys(w, where, {"kind", "path", "seed"});
        integerFromJson(w, where, "seed", 0.0, 0.0);
        std::string path = stringFromJson(w, where, "path", "");
        if (path.empty())
            PROTEUS_FATAL("workload kind \"file\" needs \"path\"");
        std::ifstream in(path);
        if (!in)
            PROTEUS_FATAL("cannot open trace file: ", path);
        return Trace::readCsv(in, path, num_families);
    }
    if (kind == "diurnal") {
        rejectUnknownKeys(w, where,
                          {"kind", "duration_sec", "seed", "base_qps",
                           "amplitude_qps", "cycles"});
    } else if (kind == "burst") {
        rejectUnknownKeys(w, where,
                          {"kind", "duration_sec", "seed", "low_qps",
                           "high_qps", "phase_sec"});
    } else if (kind == "steady" || kind == "pipeline") {
        rejectUnknownKeys(w, where,
                          {"kind", "duration_sec", "seed", "qps",
                           "process"});
    } else {
        PROTEUS_FATAL("unknown workload kind: ", kind);
    }
    Duration duration =
        seconds(positiveFromJson(w, where, "duration_sec", 360.0));
    std::uint64_t seed = static_cast<std::uint64_t>(
        integerFromJson(w, where, "seed", 42.0, 0.0));

    if (kind == "diurnal") {
        DiurnalTraceConfig cfg;
        cfg.duration = duration;
        cfg.base_qps = positiveFromJson(w, where, "base_qps", 250.0, true);
        cfg.diurnal_amplitude_qps =
            positiveFromJson(w, where, "amplitude_qps", 350.0, true);
        cfg.cycles = positiveFromJson(w, where, "cycles", 2.0, true);
        cfg.seed = seed;
        return diurnalTrace(num_families, cfg);
    }
    if (kind == "burst") {
        BurstTraceConfig cfg;
        cfg.duration = duration;
        cfg.low_qps = positiveFromJson(w, where, "low_qps", 150.0, true);
        cfg.high_qps = positiveFromJson(w, where, "high_qps", 900.0, true);
        cfg.phase = seconds(positiveFromJson(w, where, "phase_sec", 240.0));
        if (cfg.phase <= 0)  // below the simulator's 1 us resolution
            PROTEUS_FATAL("phase_sec must be at least 1e-6");
        cfg.seed = seed;
        return burstTrace(num_families, cfg);
    }
    if (kind == "steady") {
        return steadyTrace(num_families,
                           positiveFromJson(w, where, "qps", 100.0),
                           duration, arrivalProcessFromJson(w, where),
                           seed);
    }
    // kind == "pipeline"
    if (pipelines.empty())
        PROTEUS_FATAL("workload kind \"pipeline\" needs a "
                      "\"pipelines\" array in the config");
    // Compile here to resolve family names and topo order; the serving
    // system recompiles identically from the same specs.
    CompiledPipelines compiled;
    std::string error;
    if (!compilePipelines(pipelines, registry, &compiled, &error))
        PROTEUS_FATAL("pipeline config error: ", error);
    std::vector<FamilyId> entries;
    for (PipelineId p = 0; p < compiled.size(); ++p)
        entries.push_back(compiled.entryFamily(p));
    PipelineTraceConfig cfg;
    cfg.qps = positiveFromJson(w, where, "qps", cfg.qps);
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.process = arrivalProcessFromJson(w, where);
    return pipelineTrace(entries, cfg);
}

}  // namespace

ExperimentSpec
loadExperiment(const JsonValue& json)
{
    rejectUnknownKeys(
        json, kTop,
        {"model_allocation", "batching", "slo_multiplier",
         "control_period_sec", "planning_headroom", "burst_threshold",
         "snapshot_interval_sec", "milp_work_budget", "latency_jitter",
         "seed", "pipelines", "pipeline_planning", "observability",
         "cluster", "zoo", "workload"});
    ExperimentSpec spec;
    spec.config.allocator = allocatorKindFromName(
        stringFromJson(json, kTop, "model_allocation", "ilp"));
    spec.config.batching = batchingKindFromName(
        stringFromJson(json, kTop, "batching", "accscale"));
    spec.config.slo_multiplier = positiveFromJson(
        json, kTop, "slo_multiplier", spec.config.slo_multiplier);
    spec.config.control_period = seconds(positiveFromJson(
        json, kTop, "control_period_sec",
        toSeconds(spec.config.control_period)));
    spec.config.planning_headroom = positiveFromJson(
        json, kTop, "planning_headroom", spec.config.planning_headroom);
    spec.config.burst_threshold = positiveFromJson(
        json, kTop, "burst_threshold", spec.config.burst_threshold);
    spec.config.snapshot_interval = seconds(positiveFromJson(
        json, kTop, "snapshot_interval_sec",
        toSeconds(spec.config.snapshot_interval)));
    // In simplex iterations. The solver reads a budget <= 0 as "no
    // limit", so only the wall-clock backstop would be left.
    spec.config.milp_work_budget =
        static_cast<std::int64_t>(integerFromJson(
            json, kTop, "milp_work_budget",
            static_cast<double>(spec.config.milp_work_budget), 1.0));
    // Each execution time is scaled by 1 + U(-j, j), which must stay
    // positive.
    const double jitter = positiveFromJson(
        json, kTop, "latency_jitter", spec.config.latency_jitter_frac,
        true);
    if (!(jitter < 1.0)) {
        PROTEUS_FATAL("latency_jitter must be a finite number in [0, 1), "
                      "got ", jitter);
    }
    spec.config.latency_jitter_frac = jitter;
    spec.config.seed =
        static_cast<std::uint64_t>(integerFromJson(json, kTop, "seed", 1.0,
                                                   0.0));
    spec.config.pipelines = pipelinesFromJson(json);
    const std::string planning =
        stringFromJson(json, kTop, "pipeline_planning", "joint");
    if (planning == "joint")
        spec.config.pipeline_joint_planning = true;
    else if (planning == "independent")
        spec.config.pipeline_joint_planning = false;
    else
        PROTEUS_FATAL("unknown pipeline_planning: ", planning,
                      " (use \"joint\"/\"independent\")");

    if (json.has("observability")) {
        const JsonValue& o = json.at("observability");
        rejectUnknownKeys(o, kObs,
                          {"enabled", "ring_capacity", "sample_interval_sec",
                           "slo_window_sec", "trace_file", "metrics_file",
                           "timeline_csv", "timeline_json"});
        const JsonValue* enabled =
            memberOfType(o, kObs, "enabled", JsonValue::Type::Bool);
        spec.config.obs.enabled = enabled != nullptr && enabled->asBool();
        spec.config.obs.ring_capacity =
            static_cast<std::size_t>(integerFromJson(
                o, kObs, "ring_capacity",
                static_cast<double>(spec.config.obs.ring_capacity), 1.0));
        const double interval = positiveFromJson(
            o, kObs, "sample_interval_sec",
            toSeconds(spec.config.obs.sample_interval));
        const double window = positiveFromJson(
            o, kObs, "slo_window_sec",
            toSeconds(spec.config.obs.slo_window));
        if (window < interval) {
            PROTEUS_FATAL("slo_window_sec must be >= sample_interval_sec (",
                          interval, "), got ", window);
        }
        spec.config.obs.sample_interval = seconds(interval);
        spec.config.obs.slo_window = seconds(window);
        spec.trace_path = stringFromJson(o, kObs, "trace_file", "");
        spec.metrics_path = stringFromJson(o, kObs, "metrics_file", "");
        spec.timeline_csv_path = stringFromJson(o, kObs, "timeline_csv", "");
        spec.timeline_json_path =
            stringFromJson(o, kObs, "timeline_json", "");
    }

    spec.cluster = clusterFromJson(json);
    spec.registry = registryFromJson(json);
    spec.trace =
        traceFromJson(json, spec.registry, spec.config.pipelines);
    return spec;
}

ExperimentSpec
loadExperimentFile(const std::string& path)
{
    JsonValue json;
    std::string error;
    if (!parseJsonFile(path, &json, &error))
        PROTEUS_FATAL("config parse error: ", error);
    return loadExperiment(json);
}

RunResult
runExperiment(ExperimentSpec* spec)
{
    if (!spec->trace_path.empty() || !spec->metrics_path.empty() ||
        !spec->timeline_csv_path.empty() ||
        !spec->timeline_json_path.empty()) {
        spec->config.obs.enabled = true;
    }
    ServingSystem system(&spec->cluster, &spec->registry,
                         spec->config);
    RunResult result = system.run(spec->trace);
    if (!spec->trace_path.empty()) {
        if (!obs::writeChromeTrace(*system.tracer(),
                                   system.traceNames(),
                                   spec->trace_path))
            warn("could not write trace file ", spec->trace_path);
    }
    if (!spec->metrics_path.empty()) {
        if (!obs::writeMetricsJson(system.metricsRegistry(),
                                   spec->metrics_path)) {
            warn("could not write metrics file ", spec->metrics_path);
        }
    }
    if (!spec->timeline_csv_path.empty()) {
        if (!system.timeseries()->writeCsv(spec->timeline_csv_path)) {
            warn("could not write timeline CSV ",
                 spec->timeline_csv_path);
        }
    }
    if (!spec->timeline_json_path.empty()) {
        if (!system.timeseries()->writeJson(spec->timeline_json_path)) {
            warn("could not write timeline JSON ",
                 spec->timeline_json_path);
        }
    }
    return result;
}

}  // namespace proteus
