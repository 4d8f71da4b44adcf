/**
 * @file
 * Declarative sweep matrices: a JSON spec names a base experiment
 * config plus three axes — configs × scenarios × seeds — and expands
 * into a flat, deterministically ordered job list. Modeled on
 * TCPSPSuite's manager/selector split: expansion is pure and happens
 * up front, so every run of the same spec numbers jobs identically
 * regardless of how many worker threads later execute them.
 *
 * Spec format:
 * @code{.json}
 * {
 *   "name": "sweep_smoke",
 *   "base": { ...experiment config (core/experiment.h schema)... },
 *   "configs":   [{"name": "proteus", "overrides": {...}}, ...],
 *   "scenarios": [{"name": "burst",   "overrides": {...}}, ...],
 *   "seeds": {"first": 1, "count": 10},      // or [1, 7, 42]
 *   "job_budget_ms": 0
 * }
 * @endcode
 *
 * "base" may be replaced by "base_file": a path to a plain experiment
 * config. "configs" defaults to one pass-through entry, "scenarios"
 * to none (a single implicit "base" scenario), "seeds" to {first: 1,
 * count: 1}. Overrides deep-merge onto the base (config first, then
 * scenario), and the seed axis overwrites both the system seed and
 * the workload seed.
 */

#ifndef PROTEUS_SWEEP_MATRIX_H_
#define PROTEUS_SWEEP_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace proteus {
namespace sweep {

/** One entry on the config or scenario axis. */
struct AxisEntry {
    std::string name;
    JsonValue overrides;  ///< object deep-merged onto the base
};

/** A parsed sweep matrix. */
struct SweepSpec {
    std::string name;                  ///< store/report slug
    JsonValue base;                    ///< base experiment config
    std::vector<AxisEntry> configs;    ///< ≥ 1 after loading
    std::vector<AxisEntry> scenarios;  ///< ≥ 1 after loading
    std::vector<std::uint64_t> seeds;  ///< ≥ 1 after loading
    double job_budget_ms = 0.0;        ///< per-job wall budget, 0 = off
};

/** One expanded job: a fully merged experiment config plus identity. */
struct JobSpec {
    std::size_t id = 0;     ///< dense index in expansion order
    std::string config;     ///< config-axis name
    std::string scenario;   ///< scenario-axis name ("base" when unset)
    std::uint64_t seed = 0;
    JsonValue experiment;   ///< merged config, ready for loadExperiment()

    /** Aggregation group: config, plus "+scenario" when not "base". */
    std::string groupName() const;
};

/**
 * Deep-merge @p overlay onto @p base: objects merge member-wise
 * (recursively), any other type in the overlay replaces the base
 * value outright.
 */
JsonValue jsonDeepMerge(const JsonValue& base, const JsonValue& overlay);

/**
 * Parse a sweep spec. Malformed specs (an unknown key, a value of the
 * wrong type or out of range) exit 1: they are user errors.
 */
SweepSpec loadSweepSpec(const JsonValue& json);

/** Parse the JSON file at @p path and load it. */
SweepSpec loadSweepSpecFile(const std::string& path);

/**
 * Expand the matrix into jobs in fixed nesting order
 * (configs, then scenarios, then seeds); job id = position.
 */
std::vector<JobSpec> expandJobs(const SweepSpec& spec);

}  // namespace sweep
}  // namespace proteus

#endif  // PROTEUS_SWEEP_MATRIX_H_
