/**
 * @file
 * proteus_sweep: the parallel experiment driver. Expands a declarative
 * config × scenario × seed matrix (see src/sweep/matrix.h), fans the
 * jobs across a worker-thread pool, streams rows into the append-only
 * journal, writes the deterministic merged JSONL store, and (optional)
 * emits the mean/CI BENCH report that `bench_diff --stats` gates.
 *
 * Usage:
 *   proteus_sweep <sweep.json> [--threads N] [--out <store.jsonl>]
 *                 [--report <BENCH_x.json>] [--budget-ms N]
 *                 [--list] [--quiet]
 *   proteus_sweep --aggregate <store.jsonl> --report <BENCH_x.json>
 *   proteus_sweep --help
 *
 * The journal is written next to the store as <store>.journal in
 * completion order with wall-time stamps; the merged store itself is
 * byte-identical for any thread count.
 *
 * Exit codes: 0 = all jobs ok, 1 = at least one failure row (or IO
 * error), 2 = usage/spec error.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "sweep/aggregate.h"
#include "sweep/matrix.h"
#include "sweep/runner.h"
#include "sweep/store.h"

namespace {

void
printUsage(std::FILE* out)
{
    std::fprintf(out,
                 "usage: proteus_sweep <sweep.json> [--threads N] "
                 "[--out <store.jsonl>] [--report <BENCH_x.json>] "
                 "[--budget-ms N] [--list] [--quiet]\n"
                 "       proteus_sweep --aggregate <store.jsonl> "
                 "--report <BENCH_x.json>\n");
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace proteus;

    std::string spec_path;
    std::string aggregate_path;
    std::string out_path = "sweep_store.jsonl";
    std::string report_path;
    int threads = 1;
    double budget_ms = 0.0;
    bool list_only = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            threads = std::atoi(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--report" && i + 1 < argc) {
            report_path = argv[++i];
        } else if (arg == "--budget-ms" && i + 1 < argc) {
            budget_ms = std::atof(argv[++i]);
        } else if (arg == "--aggregate" && i + 1 < argc) {
            aggregate_path = argv[++i];
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "proteus_sweep: unknown option %s\n",
                         arg.c_str());
            return usage();
        } else if (spec_path.empty()) {
            spec_path = arg;
        } else {
            return usage();
        }
    }

    // Offline aggregation of an existing store.
    if (!aggregate_path.empty()) {
        if (report_path.empty() || !spec_path.empty())
            return usage();
        sweep::StoreData store;
        std::string error;
        if (!sweep::readStore(aggregate_path, &store, &error)) {
            std::fprintf(stderr, "proteus_sweep: %s\n", error.c_str());
            return 1;
        }
        if (!sweep::writeAggregateBench(store, report_path)) {
            std::fprintf(stderr, "proteus_sweep: cannot write %s\n",
                         report_path.c_str());
            return 1;
        }
        std::printf("aggregated %zu rows -> %s\n", store.rows.size(),
                    report_path.c_str());
        return 0;
    }

    if (spec_path.empty())
        return usage();
    if (threads < 1) {
        std::fprintf(stderr, "proteus_sweep: --threads must be >= 1\n");
        return 2;
    }

    const sweep::SweepSpec spec = sweep::loadSweepSpecFile(spec_path);
    const auto jobs = sweep::expandJobs(spec);
    if (!quiet) {
        std::printf("sweep %s: %zu jobs (%zu configs x %zu scenarios "
                    "x %zu seeds) on %d thread(s)\n",
                    spec.name.c_str(), jobs.size(), spec.configs.size(),
                    spec.scenarios.size(), spec.seeds.size(), threads);
    }
    if (list_only) {
        for (const auto& job : jobs) {
            std::printf("%4zu  %-20s %-14s seed=%llu\n", job.id,
                        job.config.c_str(), job.scenario.c_str(),
                        static_cast<unsigned long long>(job.seed));
        }
        return 0;
    }

    sweep::RunnerOptions options;
    options.threads = threads;
    options.job_budget_ms = budget_ms;
    options.journal_path = out_path + ".journal";

    const sweep::SweepOutcome outcome = sweep::runSweep(spec, options);

    std::ofstream store_file(out_path,
                             std::ios::binary | std::ios::trunc);
    if (!store_file || !(store_file << outcome.store_text)) {
        std::fprintf(stderr, "proteus_sweep: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    store_file.close();
    if (!quiet)
        std::printf("store written to %s\n", out_path.c_str());

    if (!report_path.empty()) {
        sweep::StoreData store;
        std::string error;
        if (!sweep::readStore(out_path, &store, &error)) {
            std::fprintf(stderr, "proteus_sweep: %s\n", error.c_str());
            return 1;
        }
        if (!sweep::writeAggregateBench(store, report_path)) {
            std::fprintf(stderr, "proteus_sweep: cannot write %s\n",
                         report_path.c_str());
            return 1;
        }
        if (!quiet)
            std::printf("report written to %s\n", report_path.c_str());
    }

    if (outcome.failed > 0) {
        std::fprintf(stderr,
                     "proteus_sweep: %zu of %zu job(s) failed (see "
                     "failure rows in %s)\n",
                     outcome.failed, outcome.rows.size(),
                     out_path.c_str());
        return 1;
    }
    if (!quiet)
        std::printf("all %zu job(s) ok\n", outcome.rows.size());
    return 0;
}
