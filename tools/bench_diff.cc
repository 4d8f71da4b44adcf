/**
 * @file
 * bench_diff: compare two BENCH_<name>.json reports (or directories
 * of them) and flag metric regressions beyond configurable tolerance
 * bands. This is the CI gate that makes the perf trajectory
 * accumulate: fig04/fig05 runs are diffed against committed baselines
 * and a regression fails the job.
 *
 * Usage:
 *   bench_diff <baseline.json|dir> <candidate.json|dir>
 *              [--rel <frac>] [--abs <delta>] [--stats]
 *
 * A metric regresses when it moves in its bad direction by more than
 * `abs + rel * |baseline|`. Directions are metric-specific (higher
 * throughput is better, lower violation ratio is better; neutral
 * metrics such as demand_qps use a symmetric band). Allocation counts
 * (`allocs_per_*`) and the event core's per-query event counts
 * (`events_fired_per_query`, `events_cancelled_per_query`,
 * `stale_entries_per_query`) do not
 * depend on machine load, so their band is `abs` alone: one more
 * allocation per decision fails the gate.
 * Reports with different schema versions or bench names refuse to
 * compare.
 *
 * --stats switches to confidence-interval gating for multi-seed
 * aggregate reports (proteus_sweep): a metric with a sibling
 * `<metric>_ci95` entry on both sides regresses only when it moves in
 * its bad direction by more than the two half-widths combined (i.e.
 * the 95% intervals are disjoint the wrong way). Metrics without CI
 * data on both sides — single-seed groups — degenerate to the
 * tolerance band above. `<metric>_ci95` entries themselves are
 * metadata and never compared directly.
 *
 * Exit codes: 0 = within tolerance, 1 = regression (or schema/name
 * mismatch, or a baseline report missing from the candidate side),
 * 2 = usage or IO error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace {

using proteus::JsonValue;

/** Which movement of a metric counts as getting worse. */
enum class Direction {
    HigherBetter,  ///< regression when the value drops
    LowerBetter,   ///< regression when the value rises
    Neutral,       ///< any drift beyond the band is flagged
};

Direction
directionOf(const std::string& metric)
{
    static const std::map<std::string, Direction> kDirections = {
        {"throughput_qps", Direction::HigherBetter},
        {"effective_accuracy", Direction::HigherBetter},
        {"served", Direction::HigherBetter},
        {"events_per_sec", Direction::HigherBetter},
        {"slo_violation_ratio", Direction::LowerBetter},
        {"allocs_per_query", Direction::LowerBetter},
        {"allocs_per_decision", Direction::LowerBetter},
        {"events_fired_per_query", Direction::LowerBetter},
        {"events_cancelled_per_query", Direction::LowerBetter},
        {"stale_entries_per_query", Direction::LowerBetter},
        {"trace_overhead_frac", Direction::LowerBetter},
        {"served_late", Direction::LowerBetter},
        {"failed_jobs", Direction::LowerBetter},
        {"violations", Direction::LowerBetter},
        {"max_accuracy_drop", Direction::LowerBetter},
        {"dropped", Direction::LowerBetter},
        {"shed", Direction::LowerBetter},
        {"demand_qps", Direction::Neutral},
        {"arrivals", Direction::Neutral},
        {"reallocations", Direction::Neutral},
        {"mean_batch_size", Direction::Neutral},
    };
    auto it = kDirections.find(metric);
    return it != kDirections.end() ? it->second : Direction::Neutral;
}

struct Tolerances {
    double rel = 0.10;
    double abs = 0.01;
    bool stats = false;  ///< CI-overlap gating where _ci95 data exists
};

/** Exact counts get no relative band (see the file comment). */
bool
isExactCount(const std::string& metric)
{
    return metric.rfind("allocs_per_", 0) == 0 ||
           metric == "events_fired_per_query" ||
           metric == "events_cancelled_per_query" ||
           metric == "stale_entries_per_query";
}

/** CI-metadata suffix emitted by proteus_sweep's aggregation pass. */
const std::string kCiSuffix = "_ci95";

bool
isCiKey(const std::string& metric)
{
    return metric.size() > kCiSuffix.size() &&
           metric.compare(metric.size() - kCiSuffix.size(),
                          kCiSuffix.size(), kCiSuffix) == 0;
}

void
usage(std::ostream& os)
{
    os << "usage: bench_diff <baseline.json|dir> <candidate.json|dir> "
          "[options]\n"
          "\n"
          "options:\n"
          "  --rel FRAC   relative tolerance band (default 0.10)\n"
          "  --abs DELTA  absolute tolerance band (default 0.01)\n"
          "  --stats      CI-overlap gating where _ci95 data exists\n"
          "  --help       this text\n"
          "\n"
          "exit codes: 0 ok, 1 findings or error, 2 usage\n";
}

struct Finding {
    std::string where;  ///< "bench/system/metric"
    double baseline = 0.0;
    double candidate = 0.0;
    double worse_by = 0.0;
    double allowed = 0.0;
};

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/**
 * Collect every numeric leaf under "results" as flat
 * "<system>/<metric>" (or "<key>" for scalar entries) → value.
 */
std::map<std::string, double>
flattenResults(const JsonValue& report)
{
    std::map<std::string, double> out;
    if (!report.has("results") || !report.at("results").isObject())
        return out;
    const JsonValue& results = report.at("results");
    for (const std::string& key : results.keys()) {
        const JsonValue& entry = results.at(key);
        if (entry.isNumber()) {
            out[key] = entry.asNumber();
        } else if (entry.isObject()) {
            for (const std::string& metric : entry.keys()) {
                const JsonValue& v = entry.at(metric);
                if (v.isNumber())
                    out[key + "/" + metric] = v.asNumber();
            }
        }
    }
    return out;
}

/** Leaf metric name of a flattened key ("sys/metric" or "metric"). */
std::string
metricOf(const std::string& key)
{
    auto slash = key.rfind('/');
    return slash == std::string::npos ? key : key.substr(slash + 1);
}

/**
 * Compare one baseline/candidate report pair.
 * @return 0 ok, 1 regression or mismatch, 2 parse error.
 */
int
diffReports(const std::string& base_path, const std::string& cand_path,
            const Tolerances& tol, std::vector<Finding>* findings)
{
    JsonValue base, cand;
    std::string error;
    if (!proteus::parseJsonFile(base_path, &base, &error)) {
        std::cerr << "bench_diff: cannot parse " << base_path << ": "
                  << error << "\n";
        return 2;
    }
    if (!proteus::parseJsonFile(cand_path, &cand, &error)) {
        std::cerr << "bench_diff: cannot parse " << cand_path << ": "
                  << error << "\n";
        return 2;
    }

    const double base_schema = base.numberOr("schema", 1.0);
    const double cand_schema = cand.numberOr("schema", 1.0);
    if (base_schema != cand_schema) {
        std::cerr << "bench_diff: schema mismatch: " << base_path
                  << " has schema " << fmt(base_schema) << ", "
                  << cand_path << " has schema " << fmt(cand_schema)
                  << " — refusing to compare\n";
        return 1;
    }
    const std::string base_bench = base.stringOr("bench", "");
    const std::string cand_bench = cand.stringOr("bench", "");
    if (base_bench != cand_bench) {
        std::cerr << "bench_diff: bench name mismatch: \"" << base_bench
                  << "\" vs \"" << cand_bench
                  << "\" — refusing to compare\n";
        return 1;
    }

    const auto base_vals = flattenResults(base);
    const auto cand_vals = flattenResults(cand);
    bool regressed = false;
    for (const auto& [key, bval] : base_vals) {
        if (isCiKey(metricOf(key)))
            continue;  // CI half-widths are metadata, not metrics
        auto it = cand_vals.find(key);
        if (it == cand_vals.end()) {
            std::cerr << "bench_diff: " << base_bench << "/" << key
                      << " missing from candidate\n";
            regressed = true;
            continue;
        }
        const double cval = it->second;
        double allowed = tol.abs;
        if (!isExactCount(metricOf(key)))
            allowed += tol.rel * std::abs(bval);
        if (tol.stats) {
            // CI-overlap gating: only when both sides carry a CI for
            // this metric; single-seed groups keep the tolerance band.
            auto bci = base_vals.find(key + kCiSuffix);
            auto cci = cand_vals.find(key + kCiSuffix);
            if (bci != base_vals.end() && cci != cand_vals.end())
                allowed = bci->second + cci->second;
        }
        double worse = 0.0;
        switch (directionOf(metricOf(key))) {
          case Direction::HigherBetter:
            worse = bval - cval;
            break;
          case Direction::LowerBetter:
            worse = cval - bval;
            break;
          case Direction::Neutral:
            worse = std::abs(cval - bval);
            break;
        }
        if (worse > allowed) {
            regressed = true;
            findings->push_back(Finding{base_bench + "/" + key, bval,
                                        cval, worse, allowed});
        }
    }
    return regressed ? 1 : 0;
}

/** BENCH_*.json files directly inside @p dir, sorted by name. */
std::vector<std::string>
benchFilesIn(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            name.size() > 5 &&
            name.substr(name.size() - 5) == ".json") {
            names.push_back(name);
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> paths;
    Tolerances tol;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--rel" && i + 1 < argc) {
            tol.rel = std::atof(argv[++i]);
        } else if (arg == "--abs" && i + 1 < argc) {
            tol.abs = std::atof(argv[++i]);
        } else if (arg == "--stats") {
            tol.stats = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "bench_diff: unknown option " << arg << "\n";
            usage(std::cerr);
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        usage(std::cerr);
        return 2;
    }

    std::vector<std::pair<std::string, std::string>> pairs;
    std::error_code ec;
    const bool base_is_dir =
        std::filesystem::is_directory(paths[0], ec);
    const bool cand_is_dir =
        std::filesystem::is_directory(paths[1], ec);
    if (base_is_dir != cand_is_dir) {
        std::cerr << "bench_diff: both arguments must be files or both "
                     "directories\n";
        return 2;
    }
    bool missing = false;
    if (base_is_dir) {
        const auto base_names = benchFilesIn(paths[0]);
        const auto cand_names = benchFilesIn(paths[1]);
        if (base_names.empty()) {
            std::cerr << "bench_diff: no BENCH_*.json in " << paths[0]
                      << "\n";
            return 2;
        }
        // Compare the two sorted listings both ways so a rename shows
        // up as one missing + one extra file, not a silent skip.
        for (const std::string& name : base_names) {
            if (!std::filesystem::exists(paths[1] + "/" + name, ec)) {
                std::cerr
                    << "bench_diff: baseline " << name
                    << " has no candidate in " << paths[1]
                    << " — run the corresponding bench binary to "
                       "produce it, or delete " << paths[0] << "/"
                    << name << " if the bench was retired\n";
                missing = true;
                continue;
            }
            pairs.emplace_back(paths[0] + "/" + name,
                               paths[1] + "/" + name);
        }
        for (const std::string& name : cand_names) {
            if (!std::filesystem::exists(paths[0] + "/" + name, ec)) {
                std::cerr
                    << "bench_diff: candidate " << name
                    << " has no committed baseline — add one with: "
                       "cp " << paths[1] << "/" << name << " "
                    << paths[0] << "/\n";
                missing = true;
            }
        }
    } else {
        pairs.emplace_back(paths[0], paths[1]);
    }

    std::vector<Finding> findings;
    int worst = missing ? 1 : 0;
    int compared = 0;
    for (const auto& [base, cand] : pairs) {
        const int rc = diffReports(base, cand, tol, &findings);
        worst = std::max(worst, rc);
        ++compared;
    }

    if (!findings.empty()) {
        std::cout << "metric                                        "
                     "baseline   candidate   worse_by   allowed\n";
        for (const Finding& f : findings) {
            std::printf("%-45s %9s %11s %10s %9s\n", f.where.c_str(),
                        fmt(f.baseline).c_str(),
                        fmt(f.candidate).c_str(), fmt(f.worse_by).c_str(),
                        fmt(f.allowed).c_str());
        }
    }
    if (worst == 0) {
        std::cout << "bench_diff: " << compared << " report(s) within "
                  << (tol.stats ? "CI bounds/" : "") << "tolerance "
                  << "(rel=" << fmt(tol.rel) << ", abs=" << fmt(tol.abs)
                  << ")\n";
    } else if (worst == 1) {
        std::cout << "bench_diff: " << findings.size()
                  << " regression(s) detected";
        if (missing)
            std::cout << " (plus missing/extra report files, see "
                         "above)";
        std::cout << "\n";
    }
    return worst;
}
