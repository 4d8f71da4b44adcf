/**
 * @file
 * proteus_sim: the config-driven simulator front-end, mirroring the
 * paper artifact's workflow (a JSON configuration file describes the
 * allocation algorithm, batching algorithm, cluster, zoo and
 * workload; the simulator prints the summary and timeseries).
 *
 * Usage:
 *   proteus_sim <config.json> [--csv <timeline.csv>] [--quiet]
 *               [--trace <trace.json>] [--metrics <metrics.json>]
 *               [--timeline <series.csv>] [--timeline-json <series.json>]
 *   proteus_sim --help
 *
 * --trace enables span tracing and writes a Chrome trace-event file
 * (chrome://tracing / Perfetto); analyse it with proteus_trace.
 * --metrics dumps the metrics registry as JSON.
 * --timeline / --timeline-json export the sampled observability time
 * series (per-device utilization, per-family rates, burn rates, ...);
 * render them with proteus_report.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "common/table.h"
#include "core/experiment.h"

namespace {

void
printUsage(std::ostream& out)
{
    out << "usage: proteus_sim <config.json> "
           "[--csv <timeline.csv>] [--quiet] "
           "[--trace <trace.json>] [--metrics <metrics.json>] "
           "[--timeline <series.csv>] "
           "[--timeline-json <series.json>]\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace proteus;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            return 0;
        }
    }
    if (argc < 2) {
        printUsage(std::cerr);
        return 2;
    }
    std::string config_path = argv[1];
    std::string csv_path;
    std::string trace_path;
    std::string metrics_path;
    std::string timeline_csv;
    std::string timeline_json;
    bool quiet = false;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--csv" && i + 1 < argc) {
            csv_path = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (arg == "--timeline" && i + 1 < argc) {
            timeline_csv = argv[++i];
        } else if (arg == "--timeline-json" && i + 1 < argc) {
            timeline_json = argv[++i];
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    ExperimentSpec spec = loadExperimentFile(config_path);
    if (!trace_path.empty())
        spec.trace_path = trace_path;
    if (!metrics_path.empty())
        spec.metrics_path = metrics_path;
    if (!timeline_csv.empty())
        spec.timeline_csv_path = timeline_csv;
    if (!timeline_json.empty())
        spec.timeline_json_path = timeline_json;
    std::cout << "allocator: " << toString(spec.config.allocator)
              << "  batching: " << toString(spec.config.batching)
              << "  cluster: " << spec.cluster.numDevices()
              << " devices  families: " << spec.registry.numFamilies()
              << "  queries: " << spec.trace.size() << "\n";

    RunResult r = runExperiment(&spec);

    TextTable summary;
    summary.setHeader({"metric", "value"});
    summary.addRow({"arrivals", std::to_string(r.summary.arrivals)});
    summary.addRow({"served", std::to_string(r.summary.served)});
    summary.addRow({"served_late",
                    std::to_string(r.summary.served_late)});
    summary.addRow({"dropped", std::to_string(r.summary.dropped)});
    summary.addRow({"avg_demand_qps",
                    fmtDouble(r.summary.avg_demand_qps, 2)});
    summary.addRow({"avg_throughput_qps",
                    fmtDouble(r.summary.avg_throughput_qps, 2)});
    summary.addRow({"effective_accuracy",
                    fmtPercent(r.summary.effective_accuracy, 2)});
    summary.addRow({"max_accuracy_drop",
                    fmtPercent(r.summary.max_accuracy_drop, 2)});
    summary.addRow({"slo_violation_ratio",
                    fmtDouble(r.summary.slo_violation_ratio, 4)});
    summary.addRow({"mean_batch_size",
                    fmtDouble(r.mean_batch_size, 2)});
    summary.addRow({"reallocations",
                    std::to_string(r.reallocations)});
    summary.print(std::cout);

    if (!quiet) {
        TextTable timeline;
        timeline.setHeader({"t_s", "demand_qps", "throughput_qps",
                            "effective_acc", "violations"});
        for (const auto& snap : r.timeline) {
            timeline.addRow(
                {fmtDouble(toSeconds(snap.start), 0),
                 fmtDouble(snap.demandQps(), 1),
                 fmtDouble(snap.throughputQps(), 1),
                 fmtPercent(snap.total.effectiveAccuracy(), 2),
                 std::to_string(snap.total.violations())});
        }
        std::cout << "\n";
        timeline.print(std::cout);
    }

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
            std::cerr << "cannot write " << csv_path << "\n";
            return 1;
        }
        TextTable csv;
        csv.setHeader({"t_s", "demand_qps", "throughput_qps",
                       "effective_acc", "violations", "dropped"});
        for (const auto& snap : r.timeline) {
            csv.addRow({fmtDouble(toSeconds(snap.start), 1),
                        fmtDouble(snap.demandQps(), 3),
                        fmtDouble(snap.throughputQps(), 3),
                        fmtDouble(snap.total.effectiveAccuracy(), 3),
                        std::to_string(snap.total.violations()),
                        std::to_string(snap.total.dropped)});
        }
        csv.printCsv(out);
        std::cout << "timeline written to " << csv_path << "\n";
    }
    if (!spec.trace_path.empty())
        std::cout << "trace written to " << spec.trace_path << "\n";
    if (!spec.metrics_path.empty())
        std::cout << "metrics written to " << spec.metrics_path << "\n";
    if (!spec.timeline_csv_path.empty()) {
        std::cout << "timeline series written to "
                  << spec.timeline_csv_path << "\n";
    }
    if (!spec.timeline_json_path.empty()) {
        std::cout << "timeline series written to "
                  << spec.timeline_json_path << "\n";
    }
    return 0;
}
