/**
 * @file
 * Runner tests: the worker pool covers every job and rethrows, failure
 * injection (throwing and budget-exceeding jobs become failure rows
 * without poisoning siblings), and the acceptance criterion in
 * miniature — a multi-config multi-seed sweep whose merged store is
 * byte-identical on 1 and 4 threads.
 */

#include "sweep/runner.h"

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "sweep/matrix.h"

namespace proteus {
namespace sweep {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits)
        h = 0;
    parallelFor(hits.size(), 4, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, SerialWhenOneThreadOrEmpty)
{
    int calls = 0;
    parallelFor(3, 1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 3);
    parallelFor(0, 8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 3);
}

TEST(ParallelForTest, RethrowsFirstExceptionAfterDrainingAllJobs)
{
    std::atomic<int> done{0};
    EXPECT_THROW(parallelFor(16, 4,
                             [&](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("five");
                                 ++done;
                             }),
                 std::runtime_error);
    // Every non-throwing job still ran: an exception does not abort
    // the pool, it is reported after the join.
    EXPECT_EQ(done.load(), 15);
}

/** Identity row for index-keyed synthetic jobs. */
SweepRow
identityRow(std::size_t i)
{
    SweepRow row;
    row.job = i;
    row.config = "cfg";
    row.scenario = "base";
    row.seed = i + 1;
    return row;
}

TEST(RunJobsTest, ThrowingJobBecomesErrorRowWithoutPoisoningSiblings)
{
    RunnerOptions options;
    options.threads = 4;
    const SweepOutcome outcome = runJobs(
        8, options, StoreHeader{}, identityRow,
        [](JobContext& ctx, SweepRow* row) {
            if (ctx.job() == 3)
                throw std::runtime_error("injected failure");
            row->metrics = {{"value", fmtMetric(
                                 static_cast<double>(ctx.job()))}};
        });
    ASSERT_EQ(outcome.rows.size(), 8u);
    EXPECT_EQ(outcome.failed, 1u);
    for (const SweepRow& row : outcome.rows) {
        if (row.job == 3) {
            EXPECT_EQ(row.status, JobStatus::Error);
            EXPECT_EQ(row.error, "injected failure");
            EXPECT_TRUE(row.metrics.empty());
        } else {
            EXPECT_EQ(row.status, JobStatus::Ok) << "job " << row.job;
            ASSERT_EQ(row.metrics.size(), 1u);
        }
    }
}

TEST(RunJobsTest, BudgetExceedingJobBecomesBudgetRow)
{
    RunnerOptions options;
    options.threads = 2;
    options.job_budget_ms = 5.0;
    const SweepOutcome outcome = runJobs(
        4, options, StoreHeader{}, identityRow,
        [](JobContext& ctx, SweepRow* row) {
            if (ctx.job() == 1) {
                // Spin until the cooperative check trips.
                for (;;)
                    ctx.checkBudget();
            }
            row->metrics = {{"ok", fmtMetric(1.0)}};
        });
    ASSERT_EQ(outcome.rows.size(), 4u);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.rows[1].status, JobStatus::Budget);
    EXPECT_NE(outcome.rows[1].error.find("exceeded"),
              std::string::npos);
    EXPECT_TRUE(outcome.rows[1].metrics.empty());
    for (const std::size_t ok : {0u, 2u, 3u})
        EXPECT_EQ(outcome.rows[ok].status, JobStatus::Ok);
}

TEST(RunJobsTest, StoreBytesIndependentOfThreadCount)
{
    const auto run = [](int threads) {
        RunnerOptions options;
        options.threads = threads;
        return runJobs(12, options, StoreHeader{}, identityRow,
                       [](JobContext& ctx, SweepRow* row) {
                           row->metrics = {
                               {"sq", fmtMetric(static_cast<double>(
                                          ctx.job() * ctx.job()))}};
                       })
            .store_text;
    };
    const std::string serial = run(1);
    EXPECT_EQ(serial, run(4));
    EXPECT_EQ(serial, run(8));
}

/** A tiny real sweep: mini zoo, 2 allocators × 2 seeds, 8 s traces. */
SweepSpec
miniSweepSpec()
{
    const std::string text = R"({
        "name": "runner_mini",
        "base": {
            "model_allocation": "ilp",
            "batching": "accscale",
            "cluster": {"cpu": 2, "gtx1080ti": 1, "v100": 1},
            "zoo": "mini",
            "workload": {"kind": "steady", "duration_sec": 8,
                         "qps": 30, "process": "poisson"}
        },
        "configs": [
            {"name": "proteus"},
            {"name": "clipper_ht",
             "overrides": {"model_allocation": "clipper_ht",
                           "batching": "aimd"}}
        ],
        "seeds": {"first": 1, "count": 2}
    })";
    JsonValue json;
    std::string error;
    EXPECT_TRUE(parseJson(text, &json, &error)) << error;
    return loadSweepSpec(json);
}

TEST(RunSweepTest, MergedStoreByteIdenticalAcrossThreadCounts)
{
    const SweepSpec spec = miniSweepSpec();
    RunnerOptions serial;
    serial.threads = 1;
    RunnerOptions pooled;
    pooled.threads = 4;
    const SweepOutcome a = runSweep(spec, serial);
    const SweepOutcome b = runSweep(spec, pooled);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(b.failed, 0u);
    ASSERT_EQ(a.rows.size(), 4u);
    EXPECT_EQ(a.store_text, b.store_text)
        << "merged store must not depend on thread count";
}

TEST(RunSweepTest, RowsCarryIdentityAndRealMetrics)
{
    const SweepSpec spec = miniSweepSpec();
    RunnerOptions options;
    options.threads = 2;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_EQ(outcome.rows.size(), 4u);
    std::set<std::string> configs;
    for (const SweepRow& row : outcome.rows) {
        EXPECT_EQ(row.status, JobStatus::Ok);
        configs.insert(row.config);
        bool saw_arrivals = false;
        for (const auto& [name, value] : row.metrics) {
            if (name == "arrivals") {
                saw_arrivals = true;
                EXPECT_NE(value, "0");
            }
        }
        EXPECT_TRUE(saw_arrivals) << "job " << row.job;
    }
    EXPECT_EQ(configs.size(), 2u);
}

TEST(RunSweepTest, SpecBudgetAppliesWhenOptionsLeaveItUnset)
{
    SweepSpec spec = miniSweepSpec();
    // An absurdly small budget: every job must abort as "budget", and
    // the sweep still runs to completion with per-row isolation.
    spec.job_budget_ms = 0.0001;
    RunnerOptions options;
    options.threads = 2;
    const SweepOutcome outcome = runSweep(spec, options);
    ASSERT_EQ(outcome.rows.size(), 4u);
    EXPECT_EQ(outcome.failed, 4u);
    for (const SweepRow& row : outcome.rows)
        EXPECT_EQ(row.status, JobStatus::Budget) << "job " << row.job;
}

TEST(RunSweepDeathTest, BadOverrideExitsBeforeAnyJobRuns)
{
    // The second config's override carries an unknown key. The check
    // runs on the calling thread before the pool starts: one message,
    // exit 1, and no job has opened the journal.
    SweepSpec spec = miniSweepSpec();
    spec.configs[1].overrides = JsonValue::makeObject(
        {{"batchign", JsonValue::makeString("aimd")}});
    const std::filesystem::path journal =
        std::filesystem::temp_directory_path() /
        "proteus_bad_override_journal.jsonl";
    std::filesystem::remove(journal);
    RunnerOptions options;
    options.threads = 4;
    options.journal_path = journal.string();
    EXPECT_EXIT(runSweep(spec, options), ::testing::ExitedWithCode(1),
                "unknown key \"batchign\" in the top-level config");
    EXPECT_FALSE(std::filesystem::exists(journal));
}

TEST(RunSweepDeathTest, BadOverrideMessageNamesSweepConfigAndScenario)
{
    // The unknown key comes from one config entry's overrides, but the
    // loader sees only the merged config: the message must say which
    // sweep, config entry and scenario built it.
    SweepSpec spec =
        loadSweepSpecFile(PROTEUS_SOURCE_DIR "/config/sweep_smoke.json");
    ASSERT_EQ(spec.configs[1].name, "clipper_ht");
    spec.configs[1].overrides = jsonDeepMerge(
        spec.configs[1].overrides,
        JsonValue::makeObject(
            {{"batchign", JsonValue::makeString("aimd")}}));
    EXPECT_EXIT(runSweep(spec, RunnerOptions{}),
                ::testing::ExitedWithCode(1),
                "sweep \"sweep_smoke\", config \"clipper_ht\", "
                "scenario \"base\": unknown key \"batchign\" in the "
                "top-level config");
}

}  // namespace
}  // namespace sweep
}  // namespace proteus
