#include "sweep/runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"
#include "core/experiment.h"
#include "core/serving_system.h"

namespace proteus {
namespace sweep {

void
JobContext::checkBudget() const
{
    if (budgetExceeded()) {
        throw BudgetExceeded("job " + std::to_string(job_) +
                             " exceeded its work budget (" +
                             std::to_string(budget_ms_) + " ms)");
    }
}

void
parallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t)>& fn)
{
    const std::size_t workers = static_cast<std::size_t>(std::clamp(
        threads, 1, static_cast<int>(std::max<std::size_t>(n, 1))));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;  // guarded by error_mu
    Mutex error_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                try {
                    fn(i);
                } catch (...) {
                    const MutexLock lock(error_mu);
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
        });
    }
    for (std::thread& t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

SweepOutcome
runJobs(std::size_t n, const RunnerOptions& options,
        const StoreHeader& header,
        const std::function<SweepRow(std::size_t)>& init,
        const JobFn& fn)
{
    ResultsStore store(header, options.journal_path);
    parallelFor(n, options.threads, [&](std::size_t i) {
        SweepRow row = init(i);
        JobContext ctx(i, options.job_budget_ms);
        try {
            fn(ctx, &row);
            row.status = JobStatus::Ok;
        } catch (const BudgetExceeded& e) {
            row.status = JobStatus::Budget;
            row.error = e.what();
            row.metrics.clear();
        } catch (const std::exception& e) {
            row.status = JobStatus::Error;
            row.error = e.what();
            row.metrics.clear();
        } catch (...) {
            row.status = JobStatus::Error;
            row.error = "unknown exception";
            row.metrics.clear();
        }
        row.wall_ms = ctx.elapsedMs();
        store.append(std::move(row));
    });

    SweepOutcome outcome;
    outcome.rows = store.sortedRows();
    outcome.failed = store.failedCount();
    outcome.store_text = store.mergedText();
    return outcome;
}

std::vector<std::pair<std::string, std::string>>
summaryMetrics(const RunResult& r)
{
    std::vector<std::pair<std::string, std::string>> m;
    m.reserve(14);
    m.emplace_back("demand_qps", fmtMetric(r.summary.avg_demand_qps));
    m.emplace_back("throughput_qps",
                   fmtMetric(r.summary.avg_throughput_qps));
    m.emplace_back("effective_accuracy",
                   fmtMetric(r.summary.effective_accuracy));
    m.emplace_back("max_accuracy_drop",
                   fmtMetric(r.summary.max_accuracy_drop));
    m.emplace_back("slo_violation_ratio",
                   fmtMetric(r.summary.slo_violation_ratio));
    m.emplace_back("violations", fmtMetric(r.summary.violations()));
    m.emplace_back("arrivals", fmtMetric(r.summary.arrivals));
    m.emplace_back("served", fmtMetric(r.summary.served));
    m.emplace_back("served_late", fmtMetric(r.summary.served_late));
    m.emplace_back("dropped", fmtMetric(r.summary.dropped));
    m.emplace_back("shed", fmtMetric(r.shed));
    m.emplace_back("reallocations",
                   fmtMetric(static_cast<std::uint64_t>(
                       std::max(r.reallocations, 0))));
    m.emplace_back("mean_batch_size", fmtMetric(r.mean_batch_size));
    return m;
}

namespace {

/**
 * One experiment job: load the merged config, run the serving system
 * over its trace and harvest the summary. The run is sliced so the
 * budget check fires between slices; an exceeded budget abandons the
 * system mid-run (RAII unwinds it) and surfaces as a budget row.
 */
void
runExperimentJob(const JobSpec& job, JobContext& ctx, SweepRow* row)
{
    ExperimentSpec spec = loadExperiment(job.experiment);
    // Sweep jobs never write per-run trace/metrics files: parallel
    // jobs would race on the paths. Exports belong to proteus_sim.
    spec.config.obs.enabled = false;

    ServingSystem system(&spec.cluster, &spec.registry, spec.config);
    const Time horizon = system.beginRun(spec.trace);
    const Duration slice = seconds(5.0);
    for (Time at = slice; at < horizon; at += slice) {
        ctx.checkBudget();
        system.advanceTo(at);
    }
    ctx.checkBudget();
    system.advanceTo(horizon);
    const RunResult result = system.finishRun();
    row->metrics = summaryMetrics(result);
}

}  // namespace

SweepOutcome
runSweep(const SweepSpec& spec, const RunnerOptions& options)
{
    const std::vector<JobSpec> jobs = expandJobs(spec);
    // A bad config exits 1 from the loader. Load one job of each
    // (config, scenario) group here, on the calling thread, so it does
    // so once and before any job runs; the seed axis sets only seeds,
    // which loadSweepSpec has checked. The message names the sweep and
    // the entries whose overrides built the config.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (i == 0 || jobs[i].config != jobs[i - 1].config ||
            jobs[i].scenario != jobs[i - 1].scenario) {
            const FatalContext context(
                "sweep \"" + spec.name + "\", config \"" + jobs[i].config +
                "\", scenario \"" + jobs[i].scenario + "\"");
            loadExperiment(jobs[i].experiment);
        }
    }

    StoreHeader header;
    header.sweep = spec.name;
#ifdef PROTEUS_GIT_SHA
    header.git_sha = PROTEUS_GIT_SHA;
#endif
    header.jobs = jobs.size();
    header.configs = spec.configs.size();
    header.scenarios = spec.scenarios.size();
    header.seeds = spec.seeds.size();

    RunnerOptions opts = options;
    if (opts.job_budget_ms <= 0.0)
        opts.job_budget_ms = spec.job_budget_ms;

    return runJobs(
        jobs.size(), opts, header,
        [&](std::size_t i) {
            SweepRow row;
            row.job = jobs[i].id;
            row.config = jobs[i].config;
            row.scenario = jobs[i].scenario;
            row.seed = jobs[i].seed;
            return row;
        },
        [&](JobContext& ctx, SweepRow* row) {
            runExperimentJob(jobs[ctx.job()], ctx, row);
        });
}

}  // namespace sweep
}  // namespace proteus
