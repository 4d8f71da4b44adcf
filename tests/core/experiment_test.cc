#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/matrix.h"

namespace proteus {
namespace {

JsonValue
parse(const std::string& text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, &v, &error)) << error;
    return v;
}

TEST(ExperimentTest, AlgorithmNameMapping)
{
    EXPECT_EQ(allocatorKindFromName("ilp"), AllocatorKind::ProteusIlp);
    EXPECT_EQ(allocatorKindFromName("infaas_v2"),
              AllocatorKind::InfaasAccuracy);
    EXPECT_EQ(allocatorKindFromName("clipper_ht"),
              AllocatorKind::ClipperHT);
    EXPECT_EQ(allocatorKindFromName("clipper_ha"),
              AllocatorKind::ClipperHA);
    EXPECT_EQ(allocatorKindFromName("sommelier"),
              AllocatorKind::Sommelier);
    EXPECT_EQ(batchingKindFromName("accscale"), BatchingKind::Proteus);
    EXPECT_EQ(batchingKindFromName("aimd"), BatchingKind::ClipperAimd);
    EXPECT_EQ(batchingKindFromName("nexus"),
              BatchingKind::NexusEarlyDrop);
    EXPECT_EQ(batchingKindFromName("static"), BatchingKind::StaticOne);
}

TEST(ExperimentTest, LoadsFullConfig)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "model_allocation": "infaas_v2",
        "batching": "nexus",
        "slo_multiplier": 2.5,
        "control_period_sec": 15,
        "seed": 9,
        "cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
        "zoo": "mini",
        "workload": {
            "kind": "steady", "duration_sec": 10, "qps": 50,
            "process": "poisson"
        }
    })"));
    EXPECT_EQ(spec.config.allocator, AllocatorKind::InfaasAccuracy);
    EXPECT_EQ(spec.config.batching, BatchingKind::NexusEarlyDrop);
    EXPECT_DOUBLE_EQ(spec.config.slo_multiplier, 2.5);
    EXPECT_EQ(spec.config.control_period, seconds(15.0));
    EXPECT_EQ(spec.config.seed, 9u);
    EXPECT_EQ(spec.cluster.numDevices(), 4u);
    EXPECT_EQ(spec.registry.numFamilies(), 3u);
    EXPECT_GT(spec.trace.size(), 200u);
}

TEST(ExperimentTest, DefaultsMatchPaperSetup)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "workload": {"kind": "steady", "duration_sec": 5, "qps": 10}
    })"));
    EXPECT_EQ(spec.config.allocator, AllocatorKind::ProteusIlp);
    EXPECT_EQ(spec.config.batching, BatchingKind::Proteus);
    EXPECT_EQ(spec.cluster.numDevices(), 40u);   // paper cluster
    EXPECT_EQ(spec.registry.numFamilies(), 9u);  // Table 3
}

TEST(ExperimentTest, WorkloadKinds)
{
    ExperimentSpec diurnal = loadExperiment(parse(R"({
        "zoo": "mini", "cluster": {"cpu": 1},
        "workload": {"kind": "diurnal", "duration_sec": 20,
                     "base_qps": 30, "amplitude_qps": 10}
    })"));
    EXPECT_GT(diurnal.trace.size(), 100u);

    ExperimentSpec burst = loadExperiment(parse(R"({
        "zoo": "mini", "cluster": {"cpu": 1},
        "workload": {"kind": "burst", "duration_sec": 20,
                     "low_qps": 10, "high_qps": 50, "phase_sec": 5}
    })"));
    EXPECT_GT(burst.trace.size(), 100u);
}

TEST(ExperimentTest, EndToEndRunFromConfig)
{
    ExperimentSpec spec = loadExperiment(parse(R"({
        "zoo": "mini",
        "cluster": {"cpu": 2, "v100": 1},
        "workload": {"kind": "steady", "duration_sec": 20, "qps": 30}
    })"));
    RunResult r = runExperiment(&spec);
    EXPECT_EQ(r.summary.arrivals, spec.trace.size());
    EXPECT_EQ(r.summary.arrivals,
              r.summary.served + r.summary.served_late +
                  r.summary.dropped);
}

TEST(ExperimentTest, TraceCsvRoundTrip)
{
    Trace t({{1000, 0}, {2000, 1}, {1500, 2}});
    std::stringstream ss;
    t.writeCsv(ss);
    Trace back = Trace::readCsv(ss, "roundtrip.csv", 3);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back.events()[0].at, 1000);
    EXPECT_EQ(back.events()[1].at, 1500);
    EXPECT_EQ(back.events()[1].family, 2u);
    EXPECT_EQ(back.events()[2].at, 2000);
}

TEST(ExperimentTest, TraceCsvWithoutHeader)
{
    std::stringstream ss("100,0\n200,1\n");
    Trace t = Trace::readCsv(ss, "noheader.csv", 2);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.events()[1].family, 1u);
}

/** A small valid config with the given milp_work_budget value. */
std::string
configWithWorkBudget(const std::string& budget)
{
    return R"({"cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
               "zoo": "mini",
               "workload": {"kind": "steady", "duration_sec": 5,
                            "qps": 20},
               "milp_work_budget": )" +
           budget + "}";
}

TEST(ExperimentTest, WorkBudgetAcceptsPositiveIntegers)
{
    EXPECT_EQ(loadExperiment(parse(configWithWorkBudget("5000")))
                  .config.milp_work_budget,
              5000);
    EXPECT_EQ(loadExperiment(parse(configWithWorkBudget("9007199254740992")))
                  .config.milp_work_budget,
              std::int64_t{1} << 53);
}

TEST(ExperimentDeathTest, WorkBudgetRejectsNegative)
{
    EXPECT_EXIT(loadExperiment(parse(configWithWorkBudget("-1"))),
                ::testing::ExitedWithCode(1),
                "milp_work_budget must be an integer in \\[1, 2\\^53\\].*got -1");
}

TEST(ExperimentDeathTest, WorkBudgetRejectsFraction)
{
    EXPECT_EXIT(loadExperiment(parse(configWithWorkBudget("0.5"))),
                ::testing::ExitedWithCode(1),
                "milp_work_budget must be an integer.*got 0\\.5");
}

TEST(ExperimentDeathTest, WorkBudgetRejectsOutOfRange)
{
    EXPECT_EXIT(loadExperiment(parse(configWithWorkBudget("1e30"))),
                ::testing::ExitedWithCode(1),
                "milp_work_budget must be an integer.*got 1e\\+30");
}

/** The small valid config with one top-level key added. */
std::string
configWith(const std::string& key, const std::string& value)
{
    return R"({"cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
               "zoo": "mini",
               "workload": {"kind": "steady", "duration_sec": 5,
                            "qps": 20},
               ")" +
           key + "\": " + value + "}";
}

TEST(ExperimentDeathTest, SloMultiplierMustBePositive)
{
    EXPECT_EXIT(loadExperiment(parse(configWith("slo_multiplier", "-1"))),
                ::testing::ExitedWithCode(1),
                "slo_multiplier must be a finite number > 0, got -1");
}

TEST(ExperimentDeathTest, ControlPeriodMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith("control_period_sec", "0"))),
        ::testing::ExitedWithCode(1),
        "control_period_sec must be a finite number > 0, got 0");
}

TEST(ExperimentDeathTest, PlanningHeadroomMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith("planning_headroom", "-1"))),
        ::testing::ExitedWithCode(1),
        "planning_headroom must be a finite number > 0, got -1");
}

TEST(ExperimentDeathTest, DiurnalBaseQpsMustNotBeNegative)
{
    const std::string config =
        R"({"cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
            "zoo": "mini",
            "workload": {"kind": "diurnal", "duration_sec": 5,
                         "base_qps": -50}})";
    EXPECT_EXIT(loadExperiment(parse(config)),
                ::testing::ExitedWithCode(1),
                "base_qps must be a finite number >= 0, got -50");
}

TEST(ExperimentDeathTest, SampleIntervalMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith(
            "observability", R"({"sample_interval_sec": 0})"))),
        ::testing::ExitedWithCode(1),
        "sample_interval_sec must be a finite number > 0, got 0");
}

TEST(ExperimentDeathTest, SloWindowMustCoverOneSampleInterval)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith(
            "observability",
            R"({"sample_interval_sec": 2, "slo_window_sec": 1.5})"))),
        ::testing::ExitedWithCode(1),
        "slo_window_sec must be >= sample_interval_sec \\(2\\), got 1\\.5");
}

TEST(ExperimentDeathTest, LatencyJitterMustBeBelowOne)
{
    // 1 + U(-1.5, 1.5) can scale an execution time below zero.
    EXPECT_EXIT(loadExperiment(parse(configWith("latency_jitter", "1.5"))),
                ::testing::ExitedWithCode(1),
                "latency_jitter must be a finite number in \\[0, 1\\), "
                "got 1\\.5");
}

TEST(ExperimentDeathTest, SnapshotIntervalMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith("snapshot_interval_sec", "0"))),
        ::testing::ExitedWithCode(1),
        "snapshot_interval_sec must be a finite number > 0, got 0");
}

TEST(ExperimentDeathTest, BurstThresholdMustBePositive)
{
    EXPECT_EXIT(loadExperiment(parse(configWith("burst_threshold", "-1"))),
                ::testing::ExitedWithCode(1),
                "burst_threshold must be a finite number > 0, got -1");
}

TEST(ExperimentDeathTest, UnknownTopLevelKeyIsRejected)
{
    EXPECT_EXIT(loadExperiment(parse(configWith("batchign", "\"aimd\""))),
                ::testing::ExitedWithCode(1),
                "unknown key \"batchign\" in the top-level config "
                "\\(accepted: model_allocation, batching, ");
}

TEST(ExperimentDeathTest, DeletedDecisionDelayKeyIsRejected)
{
    // The simulated MILP decision delay is a constant (4.2 s, §6.8).
    EXPECT_EXIT(
        loadExperiment(parse(configWith("decision_delay_sec", "0"))),
        ::testing::ExitedWithCode(1),
        "unknown key \"decision_delay_sec\" in the top-level config");
}

TEST(ExperimentDeathTest, TopLevelConfigMustBeAnObject)
{
    EXPECT_EXIT(loadExperiment(parse("[1, 2]")),
                ::testing::ExitedWithCode(1),
                "the top-level config must be a JSON object");
}

TEST(ExperimentDeathTest, SeedMustBeANonNegativeInteger)
{
    EXPECT_EXIT(loadExperiment(parse(configWith("seed", "-3"))),
                ::testing::ExitedWithCode(1),
                "seed must be an integer in \\[0, 2\\^53\\], got -3");
}

TEST(ExperimentDeathTest, SeedOfTheWrongTypeIsRejected)
{
    EXPECT_EXIT(loadExperiment(parse(configWith("seed", "\"7\""))),
                ::testing::ExitedWithCode(1),
                "\"seed\" must be a number, got a string");
}

TEST(ExperimentDeathTest, PipelinesMustBeAnArray)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWith("pipelines", R"({"name": "x"})"))),
        ::testing::ExitedWithCode(1),
        "\"pipelines\" must be an array, got an object");
}

/** A valid config whose workload replays the CSV trace at @p path. */
std::string
configWithTraceFile(const std::string& path)
{
    return R"({"cluster": {"cpu": 2}, "zoo": "mini",
               "workload": {"kind": "file", "path": ")" +
           path + "\"}}";
}

/** Write @p rows to a fresh trace file; @return its path. */
std::string
writeTraceFile(const std::string& name, const std::string& rows)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() / name;
    std::ofstream(path) << rows;
    return path.string();
}

TEST(ExperimentDeathTest, TraceFileFamilyOutsideTheZooIsRejected)
{
    // The mini zoo has 3 families: id 99 would index past the routers.
    const std::string path = writeTraceFile(
        "proteus_trace_family.csv", "time_us,family\n100,0\n200,99\n");
    EXPECT_EXIT(loadExperiment(parse(configWithTraceFile(path))),
                ::testing::ExitedWithCode(1),
                "proteus_trace_family\\.csv:3: family id 99 is out of "
                "range \\(3 families");
    std::filesystem::remove(path);
}

TEST(ExperimentDeathTest, TraceFileNonNumericFieldIsRejected)
{
    const std::string path =
        writeTraceFile("proteus_trace_nan.csv", "100,0\nsoon,1\n");
    EXPECT_EXIT(loadExperiment(parse(configWithTraceFile(path))),
                ::testing::ExitedWithCode(1),
                "proteus_trace_nan\\.csv:2: malformed trace row \"soon,1\"");
    std::filesystem::remove(path);
}

TEST(ExperimentDeathTest, TraceFileRowWithoutCommaIsRejected)
{
    const std::string path =
        writeTraceFile("proteus_trace_comma.csv", "time_us,family\n\n100\n");
    EXPECT_EXIT(loadExperiment(parse(configWithTraceFile(path))),
                ::testing::ExitedWithCode(1),
                "proteus_trace_comma\\.csv:3: malformed trace row \"100\"");
    std::filesystem::remove(path);
}

TEST(ExperimentTest, TraceCsvAcceptsCrlfLineEnds)
{
    std::stringstream ss("time_us,family\r\n100,0\r\n200,1\r\n");
    const Trace t = Trace::readCsv(ss, "crlf.csv", 2);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.events()[1].at, 200);
    EXPECT_EQ(t.events()[1].family, 1u);
}

TEST(ExperimentDeathTest, RingCapacityMustBeAPositiveInteger)
{
    EXPECT_EXIT(loadExperiment(parse(configWith(
                    "observability", R"({"ring_capacity": 0})"))),
                ::testing::ExitedWithCode(1),
                "ring_capacity must be an integer in \\[1, 2\\^53\\], "
                "got 0");
}

TEST(ExperimentDeathTest, UnknownObservabilityKeyIsRejected)
{
    // The time-series capacity is a constant (4096 samples a channel).
    EXPECT_EXIT(loadExperiment(parse(configWith(
                    "observability", R"({"timeseries_capacity": 64})"))),
                ::testing::ExitedWithCode(1),
                "unknown key \"timeseries_capacity\" in \"observability\"");
}

/** The small valid config with @p cluster and @p workload swapped in. */
std::string
configWithParts(const std::string& cluster, const std::string& workload)
{
    return R"({"zoo": "mini", "cluster": )" + cluster +
           R"(, "workload": )" + workload + "}";
}

const char* const kSteadyWorkload =
    R"({"kind": "steady", "duration_sec": 5, "qps": 20})";

TEST(ExperimentDeathTest, UnknownClusterKeyIsRejected)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2, "a100": 4})", kSteadyWorkload))),
                ::testing::ExitedWithCode(1),
                "unknown key \"a100\" in \"cluster\" "
                "\\(accepted: cpu, gtx1080ti, v100\\)");
}

TEST(ExperimentDeathTest, UnknownWorkloadKeyIsRejected)
{
    // phase_sec belongs to the burst kind; a steady workload ignored it.
    EXPECT_EXIT(
        loadExperiment(parse(configWithParts(
            R"({"cpu": 2})",
            R"({"kind": "steady", "qps": 20, "phase_sec": 5})"))),
        ::testing::ExitedWithCode(1),
        "unknown key \"phase_sec\" in \"workload\" \\(kind \"steady\"\\)");
}

/**
 * A mini-zoo config serving one two-stage pipeline; @p pipeline_extra
 * and @p stage_extra are spliced into the pipeline entry and its
 * second stage.
 */
std::string
pipelineConfig(const std::string& pipeline_extra,
               const std::string& stage_extra)
{
    return R"({"zoo": "mini", "cluster": {"cpu": 2, "v100": 1},
               "pipelines": [{"name": "vision", )" +
           pipeline_extra + R"("stages": [
                   {"name": "detect", "family": "resnet"},
                   {"name": "classify", "family": "efficientnet", )" +
           stage_extra + R"("deps": ["detect"]}]}],
               "workload": {"kind": "pipeline", "duration_sec": 5,
                            "qps": 20}})";
}

TEST(ExperimentDeathTest, UnknownPipelineKeyIsRejected)
{
    EXPECT_EXIT(
        loadExperiment(parse(pipelineConfig(R"("slo": 0.1, )", ""))),
        ::testing::ExitedWithCode(1),
        "unknown key \"slo\" in pipelines\\[0\\] "
        "\\(accepted: name, slo_sec, slo_multiplier, stages\\)");
}

TEST(ExperimentDeathTest, UnknownStageKeyIsRejected)
{
    EXPECT_EXIT(
        loadExperiment(parse(pipelineConfig("", R"("dep": "detect", )"))),
        ::testing::ExitedWithCode(1),
        "unknown key \"dep\" in pipelines\\[0\\]\\.stages\\[1\\] "
        "\\(accepted: name, family, deps\\)");
}

TEST(ExperimentDeathTest, NestedTypeErrorNamesTheObjectPath)
{
    // "name" is read in every pipeline and stage: the message must say
    // which one holds the bad value.
    std::string config = pipelineConfig("", "");
    const std::string classify = R"("name": "classify")";
    config.replace(config.find(classify), classify.size(), R"("name": 5)");
    EXPECT_EXIT(
        loadExperiment(parse(config)), ::testing::ExitedWithCode(1),
        "\"name\" must be a string, got a number "
        "\\(in pipelines\\[0\\]\\.stages\\[1\\]\\)");
}

TEST(ExperimentDeathTest, PipelineSloMustNotBeNegative)
{
    EXPECT_EXIT(
        loadExperiment(parse(pipelineConfig(R"("slo_sec": -0.06, )", ""))),
        ::testing::ExitedWithCode(1),
        "slo_sec must be a finite number >= 0, got -0\\.06");
}

TEST(ExperimentDeathTest, PipelineSloMultiplierMustNotBeNegative)
{
    EXPECT_EXIT(loadExperiment(parse(pipelineConfig(
                    R"("slo_multiplier": -2, )", ""))),
                ::testing::ExitedWithCode(1),
                "slo_multiplier must be a finite number >= 0, got -2");
}

TEST(ExperimentDeathTest, BurstLowQpsMustNotBeNegative)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "burst", "duration_sec": 5,
                        "low_qps": -10})"))),
                ::testing::ExitedWithCode(1),
                "low_qps must be a finite number >= 0, got -10");
}

TEST(ExperimentDeathTest, BurstHighQpsMustNotBeNegative)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "burst", "duration_sec": 5,
                        "high_qps": -5})"))),
                ::testing::ExitedWithCode(1),
                "high_qps must be a finite number >= 0, got -5");
}

TEST(ExperimentDeathTest, BurstPhaseMustBePositive)
{
    // Used to trip the generator's assert (exit 134).
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "burst", "duration_sec": 5,
                        "phase_sec": 0})"))),
                ::testing::ExitedWithCode(1),
                "phase_sec must be a finite number > 0, got 0");
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "burst", "duration_sec": 5,
                        "phase_sec": 1e-7})"))),
                ::testing::ExitedWithCode(1),
                "phase_sec must be at least 1e-6");
}

TEST(ExperimentDeathTest, DiurnalAmplitudeMustNotBeNegative)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "diurnal", "duration_sec": 5,
                        "amplitude_qps": -100})"))),
                ::testing::ExitedWithCode(1),
                "amplitude_qps must be a finite number >= 0, got -100");
}

TEST(ExperimentDeathTest, DiurnalCyclesMustNotBeNegative)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": 2})",
                    R"({"kind": "diurnal", "duration_sec": 5,
                        "cycles": -1})"))),
                ::testing::ExitedWithCode(1),
                "cycles must be a finite number >= 0, got -1");
}

TEST(ExperimentDeathTest, DeviceCountMustBeANonNegativeInteger)
{
    EXPECT_EXIT(loadExperiment(parse(configWithParts(
                    R"({"cpu": -2, "v100": 1})", kSteadyWorkload))),
                ::testing::ExitedWithCode(1),
                "cpu must be an integer in \\[0, 2147483647\\], got -2");
}

TEST(ExperimentDeathTest, WorkloadQpsMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWithParts(
            R"({"cpu": 2})",
            R"({"kind": "steady", "duration_sec": 5, "qps": -10})"))),
        ::testing::ExitedWithCode(1),
        "qps must be a finite number > 0, got -10");
}

TEST(ExperimentDeathTest, WorkloadDurationMustBePositive)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWithParts(
            R"({"cpu": 2})",
            R"({"kind": "steady", "duration_sec": -5, "qps": 20})"))),
        ::testing::ExitedWithCode(1),
        "duration_sec must be a finite number > 0, got -5");
}

TEST(ExperimentDeathTest, WorkloadSeedMustBeANonNegativeInteger)
{
    EXPECT_EXIT(
        loadExperiment(parse(configWithParts(
            R"({"cpu": 2})",
            R"({"kind": "steady", "duration_sec": 5, "qps": 20,
                "seed": 0.5})"))),
        ::testing::ExitedWithCode(1),
        "seed must be an integer in \\[0, 2\\^53\\], got 0\\.5");
}

TEST(ExperimentTest, ValidatedKeysAcceptGoodValues)
{
    const ExperimentSpec spec = loadExperiment(
        parse(configWith("planning_headroom", "1.2")));
    EXPECT_EQ(spec.config.planning_headroom, 1.2);

    // Boundary values: no jitter, seed 0, a one-slot ring and a device
    // type with no devices.
    EXPECT_EQ(loadExperiment(parse(configWith("latency_jitter", "0")))
                  .config.latency_jitter_frac,
              0.0);
    EXPECT_EQ(loadExperiment(parse(configWith("seed", "0"))).config.seed,
              0u);
    const ExperimentSpec rings = loadExperiment(
        parse(configWith("observability", R"({"ring_capacity": 1})")));
    EXPECT_EQ(rings.config.obs.ring_capacity, 1u);
    const ExperimentSpec no_cpu = loadExperiment(parse(configWithParts(
        R"({"cpu": 0, "v100": 1})",
        R"({"kind": "steady", "duration_sec": 5, "qps": 20, "seed": 0})")));
    EXPECT_EQ(no_cpu.cluster.numDevices(), 1u);

    const ExperimentSpec obs = loadExperiment(parse(configWith(
        "observability",
        R"({"sample_interval_sec": 0.5, "slo_window_sec": 20})")));
    EXPECT_EQ(obs.config.obs.sample_interval, seconds(0.5));
    EXPECT_EQ(obs.config.obs.slo_window, seconds(20.0));

    // A pipeline SLO of 0 is derived from the multiplier, and a 0
    // multiplier falls back to the top-level one.
    const ExperimentSpec pipe = loadExperiment(parse(
        pipelineConfig(R"("slo_sec": 0, "slo_multiplier": 0, )", "")));
    ASSERT_EQ(pipe.config.pipelines.size(), 1u);
    EXPECT_EQ(pipe.config.pipelines[0].slo, 0);
    EXPECT_EQ(pipe.config.pipelines[0].stages.size(), 2u);
}

/** @return the JSON files directly under @p dir, in name order. */
std::vector<std::string>
jsonFilesIn(const std::filesystem::path& dir)
{
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".json")
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ExperimentTest, EveryCommittedConfigLoads)
{
    // The loader rejects keys it does not read, so a committed config
    // that sets a deleted or misspelt key would no longer run.
    const std::filesystem::path root = PROTEUS_SOURCE_DIR;
    std::size_t loaded = 0;
    for (const char* dir : {"config", "perfbench/workloads"}) {
        for (const std::string& path : jsonFilesIn(root / dir)) {
            SCOPED_TRACE(path);
            JsonValue json;
            std::string error;
            ASSERT_TRUE(parseJsonFile(path, &json, &error)) << error;
            if (!json.has("base")) {
                EXPECT_GT(loadExperiment(json).trace.size(), 0u);
                ++loaded;
                continue;
            }
            // A sweep spec: load every expanded job.
            for (const sweep::JobSpec& job :
                 sweep::expandJobs(sweep::loadSweepSpec(json))) {
                SCOPED_TRACE(job.groupName());
                EXPECT_GT(loadExperiment(job.experiment).trace.size(), 0u);
                ++loaded;
            }
        }
    }
    // Today: 7 configs, the 30 sweep_smoke jobs, 3 perfbench workloads.
    EXPECT_GE(loaded, 40u);
}

}  // namespace
}  // namespace proteus
