/**
 * @file
 * Config-file-driven experiments, mirroring the paper artifact's JSON
 * configuration interface (Appendix A.5/A.7): a JSON file selects the
 * resource-allocation algorithm ("ilp", "infaas_v2", "clipper_ht",
 * "clipper_ha", "sommelier", plus the ablations), the batching
 * algorithm ("accscale", "aimd", "nexus", "static"), the cluster
 * composition, the model zoo, and the workload (generated or loaded
 * from a trace CSV).
 *
 * Example:
 * @code{.json}
 * {
 *   "model_allocation": "ilp",
 *   "batching": "accscale",
 *   "slo_multiplier": 2.0,
 *   "cluster": {"cpu": 20, "gtx1080ti": 10, "v100": 10},
 *   "zoo": "paper",
 *   "workload": {
 *     "kind": "diurnal",
 *     "duration_sec": 1440,
 *     "base_qps": 400,
 *     "amplitude_qps": 900
 *   }
 * }
 * @endcode
 */

#ifndef PROTEUS_CORE_EXPERIMENT_H_
#define PROTEUS_CORE_EXPERIMENT_H_

#include <string>

#include "cluster/device.h"
#include "common/json.h"
#include "core/serving_system.h"
#include "models/model.h"
#include "workload/trace.h"

namespace proteus {

/** A fully described experiment parsed from JSON. */
struct ExperimentSpec {
    SystemConfig config;
    Cluster cluster;
    ModelRegistry registry;
    Trace trace;
    /**
     * When non-empty, span tracing is enabled for the run and the
     * Chrome trace-event JSON is written here afterwards (loadable in
     * chrome://tracing or Perfetto).
     */
    std::string trace_path;
    /** When non-empty, the metrics-registry JSON dump is written here. */
    std::string metrics_path;
    /** When non-empty, the time-series CSV export is written here. */
    std::string timeline_csv_path;
    /** When non-empty, the time-series JSON export is written here. */
    std::string timeline_json_path;
};

/**
 * Build an ExperimentSpec from a parsed JSON config. Unknown keys (at
 * every level), unknown algorithm or workload names and out-of-range
 * values are fatal (user error): the message names the key and the
 * object it appeared in, and the process exits 1.
 */
ExperimentSpec loadExperiment(const JsonValue& json);

/** Convenience: parse the JSON file at @p path and load it. */
ExperimentSpec loadExperimentFile(const std::string& path);

/** Run the experiment to completion. */
RunResult runExperiment(ExperimentSpec* spec);

/** Map the artifact's allocation-algorithm names to AllocatorKind. */
AllocatorKind allocatorKindFromName(const std::string& name);

/** Map the artifact's batching-algorithm names to BatchingKind. */
BatchingKind batchingKindFromName(const std::string& name);

}  // namespace proteus

#endif  // PROTEUS_CORE_EXPERIMENT_H_
