#include "core/experiment.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
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

/**
 * Exit 1 unless @p object is a JSON object whose every key is in
 * @p known. The loader reads only the listed keys, so any other key
 * (a typo such as "batchign", or a setting that no longer exists)
 * would otherwise be dropped without a word. @p where names the
 * object in the message.
 */
void
rejectUnknownKeys(const JsonValue& object, const std::string& where,
                  std::initializer_list<const char*> known)
{
    if (!object.isObject())
        PROTEUS_FATAL(where, " must be a JSON object");
    for (const std::string& key : object.keys()) {
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        std::string accepted;
        for (const char* k : known)
            accepted += (accepted.empty() ? "" : ", ") + std::string(k);
        PROTEUS_FATAL("unknown key \"", key, "\" in ", where,
                      " (accepted: ", accepted, ")");
    }
}

/**
 * @return json[@p key], or @p fallback when absent, after checking it
 * is a finite number above zero (or at least zero with @p zero_ok). A
 * bad value would otherwise trip an assert deep in the run or run
 * silently with a meaningless result.
 */
double
positiveFromJson(const JsonValue& json, const char* key, double fallback,
                 bool zero_ok = false)
{
    const double v = json.numberOr(key, fallback);
    if (!std::isfinite(v) || v < 0.0 || (v == 0.0 && !zero_ok)) {
        PROTEUS_FATAL(key, zero_ok ? " must be a finite number >= 0"
                                   : " must be a finite number > 0",
                      ", got ", v);
    }
    return v;
}

/** The largest integer a JSON double holds exactly. */
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

/**
 * @return json[@p key], or @p fallback when absent, after checking it
 * is an integer in [@p lo, @p hi]. The range keeps the caller's cast to
 * its integer type defined: a fraction would be truncated and a
 * negative value would wrap an unsigned count.
 */
double
integerFromJson(const JsonValue& json, const char* key, double fallback,
                double lo, double hi = kMaxExactInteger)
{
    const double v = json.numberOr(key, fallback);
    if (!(v >= lo && v <= hi && v == std::floor(v))) {
        const std::string top =
            hi == kMaxExactInteger
                ? "2^53"
                : std::to_string(static_cast<std::int64_t>(hi));
        PROTEUS_FATAL(key, " must be an integer in [",
                      static_cast<std::int64_t>(lo), ", ", top, "], got ",
                      v);
    }
    return v;
}

/** A device count: an integer in [0, INT_MAX]. */
int
deviceCountFromJson(const JsonValue& cluster, const char* key)
{
    return static_cast<int>(integerFromJson(
        cluster, key, 0.0, 0.0, std::numeric_limits<int>::max()));
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
    rejectUnknownKeys(c, "\"cluster\"", {"cpu", "gtx1080ti", "v100"});
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
    std::string zoo = json.stringOr("zoo", "paper");
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
    if (!json.has("pipelines"))
        return specs;
    for (const JsonValue& p : json.at("pipelines").asArray()) {
        const std::string where =
            "pipelines[" + std::to_string(specs.size()) + "]";
        rejectUnknownKeys(p, where,
                          {"name", "slo_sec", "slo_multiplier", "stages"});
        PipelineSpec spec;
        spec.name = p.stringOr("name", "");
        if (spec.name.empty())
            PROTEUS_FATAL("pipeline entry is missing \"name\"");
        // 0 (the default) derives the SLO from the multiplier, and a 0
        // multiplier falls back to the top-level slo_multiplier.
        spec.slo = seconds(positiveFromJson(p, "slo_sec", 0.0, true));
        spec.slo_multiplier =
            positiveFromJson(p, "slo_multiplier", 0.0, true);
        if (!p.has("stages"))
            PROTEUS_FATAL("pipeline \"", spec.name,
                          "\" is missing \"stages\"");
        for (const JsonValue& s : p.at("stages").asArray()) {
            rejectUnknownKeys(s,
                              where + ".stages[" +
                                  std::to_string(spec.stages.size()) + "]",
                              {"name", "family", "deps"});
            PipelineStageSpec stage;
            stage.name = s.stringOr("name", "");
            stage.family = s.stringOr("family", "");
            if (s.has("deps")) {
                for (const JsonValue& d : s.at("deps").asArray())
                    stage.deps.push_back(d.asString());
            }
            spec.stages.push_back(std::move(stage));
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

/** @return the "process" key of @p w as an arrival process. */
ArrivalProcess
arrivalProcessFromJson(const JsonValue& w)
{
    const std::string process = w.stringOr("process", "poisson");
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
    const std::string kind = w.stringOr("kind", "diurnal");
    const std::string where = "\"workload\" (kind \"" + kind + "\")";
    if (kind == "file") {
        // A trace file has no randomness; "seed" is accepted because a
        // sweep's seed axis sets it on every job's workload.
        rejectUnknownKeys(w, where, {"kind", "path", "seed"});
        integerFromJson(w, "seed", 0.0, 0.0);
        std::string path = w.stringOr("path", "");
        if (path.empty())
            PROTEUS_FATAL("workload kind \"file\" needs \"path\"");
        std::ifstream in(path);
        if (!in)
            PROTEUS_FATAL("cannot open trace file: ", path);
        return Trace::readCsv(in);
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
    Duration duration = seconds(positiveFromJson(w, "duration_sec", 360.0));
    std::uint64_t seed =
        static_cast<std::uint64_t>(integerFromJson(w, "seed", 42.0, 0.0));

    if (kind == "diurnal") {
        DiurnalTraceConfig cfg;
        cfg.duration = duration;
        cfg.base_qps = positiveFromJson(w, "base_qps", 250.0, true);
        cfg.diurnal_amplitude_qps =
            positiveFromJson(w, "amplitude_qps", 350.0, true);
        cfg.cycles = positiveFromJson(w, "cycles", 2.0, true);
        cfg.seed = seed;
        return diurnalTrace(num_families, cfg);
    }
    if (kind == "burst") {
        BurstTraceConfig cfg;
        cfg.duration = duration;
        cfg.low_qps = positiveFromJson(w, "low_qps", 150.0, true);
        cfg.high_qps = positiveFromJson(w, "high_qps", 900.0, true);
        cfg.phase = seconds(positiveFromJson(w, "phase_sec", 240.0));
        if (cfg.phase <= 0)  // below the simulator's 1 us resolution
            PROTEUS_FATAL("phase_sec must be at least 1e-6");
        cfg.seed = seed;
        return burstTrace(num_families, cfg);
    }
    if (kind == "steady") {
        return steadyTrace(num_families, positiveFromJson(w, "qps", 100.0),
                           duration, arrivalProcessFromJson(w), seed);
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
    cfg.qps = positiveFromJson(w, "qps", cfg.qps);
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.process = arrivalProcessFromJson(w);
    return pipelineTrace(entries, cfg);
}

}  // namespace

ExperimentSpec
loadExperiment(const JsonValue& json)
{
    rejectUnknownKeys(
        json, "the top-level config",
        {"model_allocation", "batching", "slo_multiplier",
         "control_period_sec", "planning_headroom", "burst_threshold",
         "snapshot_interval_sec", "milp_work_budget", "latency_jitter",
         "seed", "pipelines", "pipeline_planning", "observability",
         "cluster", "zoo", "workload"});
    ExperimentSpec spec;
    spec.config.allocator = allocatorKindFromName(
        json.stringOr("model_allocation", "ilp"));
    spec.config.batching =
        batchingKindFromName(json.stringOr("batching", "accscale"));
    spec.config.slo_multiplier = positiveFromJson(
        json, "slo_multiplier", spec.config.slo_multiplier);
    spec.config.control_period = seconds(positiveFromJson(
        json, "control_period_sec", toSeconds(spec.config.control_period)));
    spec.config.planning_headroom = positiveFromJson(
        json, "planning_headroom", spec.config.planning_headroom);
    spec.config.burst_threshold = positiveFromJson(
        json, "burst_threshold", spec.config.burst_threshold);
    spec.config.snapshot_interval = seconds(positiveFromJson(
        json, "snapshot_interval_sec",
        toSeconds(spec.config.snapshot_interval)));
    // In simplex iterations. The solver reads a budget <= 0 as "no
    // limit", so only the wall-clock backstop would be left.
    spec.config.milp_work_budget =
        static_cast<std::int64_t>(integerFromJson(
            json, "milp_work_budget",
            static_cast<double>(spec.config.milp_work_budget), 1.0));
    // Each execution time is scaled by 1 + U(-j, j), which must stay
    // positive.
    const double jitter = json.numberOr(
        "latency_jitter", spec.config.latency_jitter_frac);
    if (!(jitter >= 0.0 && jitter < 1.0)) {
        PROTEUS_FATAL("latency_jitter must be a finite number in [0, 1), "
                      "got ", jitter);
    }
    spec.config.latency_jitter_frac = jitter;
    spec.config.seed =
        static_cast<std::uint64_t>(integerFromJson(json, "seed", 1.0, 0.0));
    spec.config.pipelines = pipelinesFromJson(json);
    const std::string planning =
        json.stringOr("pipeline_planning", "joint");
    if (planning == "joint")
        spec.config.pipeline_joint_planning = true;
    else if (planning == "independent")
        spec.config.pipeline_joint_planning = false;
    else
        PROTEUS_FATAL("unknown pipeline_planning: ", planning,
                      " (use \"joint\"/\"independent\")");

    if (json.has("observability")) {
        const JsonValue& o = json.at("observability");
        rejectUnknownKeys(o, "\"observability\"",
                          {"enabled", "ring_capacity", "sample_interval_sec",
                           "slo_window_sec", "trace_file", "metrics_file",
                           "timeline_csv", "timeline_json"});
        spec.config.obs.enabled = o.boolOr("enabled", false);
        spec.config.obs.ring_capacity =
            static_cast<std::size_t>(integerFromJson(
                o, "ring_capacity",
                static_cast<double>(spec.config.obs.ring_capacity), 1.0));
        const double interval = positiveFromJson(
            o, "sample_interval_sec",
            toSeconds(spec.config.obs.sample_interval));
        const double window = positiveFromJson(
            o, "slo_window_sec", toSeconds(spec.config.obs.slo_window));
        if (window < interval) {
            PROTEUS_FATAL("slo_window_sec must be >= sample_interval_sec (",
                          interval, "), got ", window);
        }
        spec.config.obs.sample_interval = seconds(interval);
        spec.config.obs.slo_window = seconds(window);
        spec.trace_path = o.stringOr("trace_file", "");
        spec.metrics_path = o.stringOr("metrics_file", "");
        spec.timeline_csv_path = o.stringOr("timeline_csv", "");
        spec.timeline_json_path = o.stringOr("timeline_json", "");
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
