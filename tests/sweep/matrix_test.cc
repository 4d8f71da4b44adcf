/**
 * @file
 * Sweep matrix tests: deep-merge semantics, spec parsing defaults,
 * deterministic expansion order and the seed-axis overlay.
 */

#include "sweep/matrix.h"

#include <string>

#include <gtest/gtest.h>

#include "common/json.h"

namespace proteus {
namespace sweep {
namespace {

JsonValue
parse(const std::string& text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, &v, &error)) << error;
    return v;
}

TEST(JsonDeepMerge, ObjectsMergeRecursively)
{
    const JsonValue base = parse(
        R"({"a": 1, "nested": {"x": 1, "y": 2}, "kept": "yes"})");
    const JsonValue overlay =
        parse(R"({"a": 9, "nested": {"y": 7, "z": 3}})");
    const JsonValue merged = jsonDeepMerge(base, overlay);
    EXPECT_EQ(merged.at("a").asNumber(), 9.0);
    EXPECT_EQ(merged.at("kept").asString(), "yes");
    EXPECT_EQ(merged.at("nested").at("x").asNumber(), 1.0);
    EXPECT_EQ(merged.at("nested").at("y").asNumber(), 7.0);
    EXPECT_EQ(merged.at("nested").at("z").asNumber(), 3.0);
}

TEST(JsonDeepMerge, NonObjectOverlayReplacesOutright)
{
    const JsonValue base = parse(R"({"v": {"deep": 1}})");
    const JsonValue overlay = parse(R"({"v": 5})");
    const JsonValue merged = jsonDeepMerge(base, overlay);
    EXPECT_TRUE(merged.at("v").isNumber());
    EXPECT_EQ(merged.at("v").asNumber(), 5.0);
    // And arrays replace rather than concatenate.
    const JsonValue m2 = jsonDeepMerge(parse(R"({"a": [1, 2, 3]})"),
                                       parse(R"({"a": [9]})"));
    EXPECT_EQ(m2.at("a").asArray().size(), 1u);
}

TEST(SweepSpecTest, DefaultsFillMissingAxes)
{
    const SweepSpec spec =
        loadSweepSpec(parse(R"({"base": {"k": 1}})"));
    EXPECT_EQ(spec.name, "sweep");
    ASSERT_EQ(spec.configs.size(), 1u);
    EXPECT_EQ(spec.configs[0].name, "base");
    ASSERT_EQ(spec.scenarios.size(), 1u);
    EXPECT_EQ(spec.scenarios[0].name, "base");
    ASSERT_EQ(spec.seeds.size(), 1u);
    EXPECT_EQ(spec.seeds[0], 1u);
    EXPECT_EQ(spec.job_budget_ms, 0.0);
}

TEST(SweepSpecTest, SeedsAcceptBothListAndRangeForms)
{
    const SweepSpec list = loadSweepSpec(
        parse(R"({"base": {}, "seeds": [3, 1, 7]})"));
    ASSERT_EQ(list.seeds.size(), 3u);
    // List order is preserved, not sorted: it is the expansion order.
    EXPECT_EQ(list.seeds[0], 3u);
    EXPECT_EQ(list.seeds[1], 1u);
    EXPECT_EQ(list.seeds[2], 7u);

    const SweepSpec range = loadSweepSpec(
        parse(R"({"base": {}, "seeds": {"first": 5, "count": 4}})"));
    ASSERT_EQ(range.seeds.size(), 4u);
    EXPECT_EQ(range.seeds.front(), 5u);
    EXPECT_EQ(range.seeds.back(), 8u);
}

TEST(SweepSpecDeathTest, UnknownTopLevelKeyIsRejected)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {}, "sceanrios": []})")),
                ::testing::ExitedWithCode(1),
                "unknown key \"sceanrios\" in the sweep spec");
}

TEST(SweepSpecDeathTest, UnknownAxisEntryKeyIsRejected)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {},
                    "configs": [{"name": "a", "overide": {}}]})")),
                ::testing::ExitedWithCode(1),
                "unknown key \"overide\" in sweep \"configs\"\\[0\\]");
}

TEST(SweepSpecDeathTest, UnknownSeedsKeyIsRejected)
{
    EXPECT_EXIT(loadSweepSpec(parse(
                    R"({"base": {}, "seeds": {"first": 1, "cnt": 3}})")),
                ::testing::ExitedWithCode(1),
                "unknown key \"cnt\" in sweep \"seeds\"");
}

TEST(SweepSpecDeathTest, NegativeSeedIsRejected)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {}, "seeds": [-1]})")),
                ::testing::ExitedWithCode(1),
                "sweep \"seeds\" entry must be an integer in "
                "\\[0, 2\\^53\\], got -1");
}

TEST(SweepSpecDeathTest, SeedRangeMustEndWithin2To53)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {},
                    "seeds": {"first": 9007199254740992, "count": 2}})")),
                ::testing::ExitedWithCode(1),
                "first must be an integer in \\[0, 9007199254740991\\]");
}

TEST(SweepSpecDeathTest, SeedCountMustBeAtLeastOne)
{
    EXPECT_EXIT(loadSweepSpec(parse(
                    R"({"base": {}, "seeds": {"first": 1, "count": 0}})")),
                ::testing::ExitedWithCode(1),
                "count must be an integer in \\[1, 2147483647\\], got 0");
}

TEST(SweepSpecDeathTest, SeedCountMustFitAnInt)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {},
                    "seeds": {"first": 1, "count": 4294967297}})")),
                ::testing::ExitedWithCode(1),
                "count must be an integer in \\[1, 2147483647\\]");
}

TEST(SweepSpecDeathTest, JobBudgetMustNotBeNegative)
{
    EXPECT_EXIT(loadSweepSpec(parse(R"({"base": {}, "job_budget_ms": -5})")),
                ::testing::ExitedWithCode(1),
                "job_budget_ms must be a finite number >= 0, got -5");
}

TEST(ExpandJobsTest, NestingOrderIsConfigsScenariosSeeds)
{
    const SweepSpec spec = loadSweepSpec(parse(R"({
        "name": "m",
        "base": {"qps": 10},
        "configs": [{"name": "a"}, {"name": "b"}],
        "scenarios": [{"name": "base"}, {"name": "burst"}],
        "seeds": [1, 2]
    })"));
    const auto jobs = expandJobs(spec);
    ASSERT_EQ(jobs.size(), 8u);
    // Job id is dense and equals the position.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].id, i);
    // configs outermost, seeds innermost.
    EXPECT_EQ(jobs[0].config, "a");
    EXPECT_EQ(jobs[0].scenario, "base");
    EXPECT_EQ(jobs[0].seed, 1u);
    EXPECT_EQ(jobs[1].seed, 2u);
    EXPECT_EQ(jobs[2].scenario, "burst");
    EXPECT_EQ(jobs[4].config, "b");
    EXPECT_EQ(jobs[7].config, "b");
    EXPECT_EQ(jobs[7].scenario, "burst");
    EXPECT_EQ(jobs[7].seed, 2u);
}

TEST(ExpandJobsTest, OverridesLayerConfigThenScenario)
{
    const SweepSpec spec = loadSweepSpec(parse(R"({
        "base": {"qps": 10, "alg": "ilp"},
        "configs": [{"name": "c", "overrides": {"alg": "aimd",
                                                "qps": 20}}],
        "scenarios": [{"name": "s", "overrides": {"qps": 30}}]
    })"));
    const auto jobs = expandJobs(spec);
    ASSERT_EQ(jobs.size(), 1u);
    // Scenario overlay lands after the config overlay.
    EXPECT_EQ(jobs[0].experiment.at("qps").asNumber(), 30.0);
    EXPECT_EQ(jobs[0].experiment.at("alg").asString(), "aimd");
}

TEST(ExpandJobsTest, SeedAxisOwnsSystemAndWorkloadSeeds)
{
    const SweepSpec spec = loadSweepSpec(parse(R"({
        "base": {"seed": 99, "workload": {"kind": "steady",
                                          "seed": 99, "qps": 5}},
        "seeds": [7]
    })"));
    const auto jobs = expandJobs(spec);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].experiment.at("seed").asNumber(), 7.0);
    EXPECT_EQ(jobs[0].experiment.at("workload").at("seed").asNumber(),
              7.0);
    // The rest of the workload object survives the overlay.
    EXPECT_EQ(jobs[0].experiment.at("workload").at("qps").asNumber(),
              5.0);
}

TEST(JobSpecTest, GroupNameFoldsBaseScenario)
{
    JobSpec job;
    job.config = "proteus";
    job.scenario = "base";
    EXPECT_EQ(job.groupName(), "proteus");
    job.scenario = "burst";
    EXPECT_EQ(job.groupName(), "proteus+burst");
}

}  // namespace
}  // namespace sweep
}  // namespace proteus
