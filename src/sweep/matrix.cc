#include "sweep/matrix.h"

#include <limits>
#include <map>

#include "common/logging.h"

namespace proteus {
namespace sweep {

std::string
JobSpec::groupName() const
{
    if (scenario.empty() || scenario == "base")
        return config;
    return config + "+" + scenario;
}

JsonValue
jsonDeepMerge(const JsonValue& base, const JsonValue& overlay)
{
    if (!base.isObject() || !overlay.isObject())
        return overlay;
    std::map<std::string, JsonValue> merged;
    for (const std::string& key : base.keys())
        merged.emplace(key, base.at(key));
    for (const std::string& key : overlay.keys()) {
        auto it = merged.find(key);
        if (it == merged.end())
            merged.emplace(key, overlay.at(key));
        else
            it->second = jsonDeepMerge(it->second, overlay.at(key));
    }
    return JsonValue::makeObject(std::move(merged));
}

namespace {

/** Names the sweep spec's top-level object in config errors. */
const char* const kSpec = "the sweep spec";

std::vector<AxisEntry>
axisFromJson(const JsonValue& json, const char* key)
{
    std::vector<AxisEntry> axis;
    for (const JsonValue& e : arrayFromJson(json, kSpec, key)) {
        const std::string where = std::string("sweep \"") + key + "\"[" +
                                  std::to_string(axis.size()) + "]";
        rejectUnknownKeys(e, where, {"name", "overrides"});
        AxisEntry entry;
        entry.name = stringFromJson(e, where, "name", "");
        if (entry.name.empty())
            PROTEUS_FATAL(where, " needs a \"name\"");
        const JsonValue* overrides =
            memberOfType(e, where, "overrides", JsonValue::Type::Object);
        entry.overrides =
            overrides != nullptr ? *overrides : JsonValue::makeObject({});
        for (const AxisEntry& prev : axis) {
            if (prev.name == entry.name)
                PROTEUS_FATAL("sweep \"", key, "\" has duplicate name \"",
                              entry.name, "\"");
        }
        axis.push_back(std::move(entry));
    }
    return axis;
}

/** Seeds are integers in [0, 2^53]: a JSON number holds them exactly. */
std::vector<std::uint64_t>
seedsFromJson(const JsonValue& json)
{
    if (!json.has("seeds"))
        return {1};
    const JsonValue& s = json.at("seeds");
    std::vector<std::uint64_t> seeds;
    if (s.isArray()) {
        for (const JsonValue& v : s.asArray()) {
            seeds.push_back(static_cast<std::uint64_t>(
                checkedInteger(v, "sweep \"seeds\" entry", 0.0)));
        }
        if (seeds.empty())
            PROTEUS_FATAL("sweep \"seeds\" expands to no seeds");
        return seeds;
    }
    const std::string where = "sweep \"seeds\" (an array or {first, count})";
    rejectUnknownKeys(s, where, {"first", "count"});
    const auto count = static_cast<int>(integerFromJson(
        s, where, "count", 1.0, 1.0, std::numeric_limits<int>::max()));
    // The last seed, first + count - 1, must stay within 2^53 too.
    const auto first = static_cast<std::uint64_t>(integerFromJson(
        s, where, "first", 1.0, 0.0, kMaxExactInteger - (count - 1)));
    for (int i = 0; i < count; ++i)
        seeds.push_back(first + static_cast<std::uint64_t>(i));
    return seeds;
}

}  // namespace

SweepSpec
loadSweepSpec(const JsonValue& json)
{
    rejectUnknownKeys(json, kSpec,
                      {"name", "base", "base_file", "configs", "scenarios",
                       "seeds", "job_budget_ms"});
    SweepSpec spec;
    spec.name = stringFromJson(json, kSpec, "name", "sweep");
    const std::string base_file =
        stringFromJson(json, kSpec, "base_file", "");
    if (const JsonValue* base =
            memberOfType(json, kSpec, "base", JsonValue::Type::Object)) {
        spec.base = *base;
    } else if (!base_file.empty()) {
        std::string error;
        if (!parseJsonFile(base_file, &spec.base, &error))
            PROTEUS_FATAL("sweep base_file parse error: ", error);
    } else {
        PROTEUS_FATAL("sweep spec needs \"base\" or \"base_file\"");
    }

    spec.configs = axisFromJson(json, "configs");
    if (spec.configs.empty())
        spec.configs.push_back({"base", JsonValue::makeObject({})});
    spec.scenarios = axisFromJson(json, "scenarios");
    if (spec.scenarios.empty())
        spec.scenarios.push_back({"base", JsonValue::makeObject({})});
    spec.seeds = seedsFromJson(json);
    spec.job_budget_ms =
        positiveFromJson(json, kSpec, "job_budget_ms", 0.0, true);
    return spec;
}

SweepSpec
loadSweepSpecFile(const std::string& path)
{
    JsonValue json;
    std::string error;
    if (!parseJsonFile(path, &json, &error))
        PROTEUS_FATAL("sweep spec parse error: ", error);
    return loadSweepSpec(json);
}

std::vector<JobSpec>
expandJobs(const SweepSpec& spec)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(spec.configs.size() * spec.scenarios.size() *
                 spec.seeds.size());
    for (const AxisEntry& config : spec.configs) {
        const JsonValue with_config =
            jsonDeepMerge(spec.base, config.overrides);
        for (const AxisEntry& scenario : spec.scenarios) {
            const JsonValue merged =
                jsonDeepMerge(with_config, scenario.overrides);
            for (const std::uint64_t seed : spec.seeds) {
                JobSpec job;
                job.id = jobs.size();
                job.config = config.name;
                job.scenario = scenario.name;
                job.seed = seed;
                // The seed axis owns both RNG seeds: the system's and
                // the workload generator's.
                const JsonValue seed_overlay = JsonValue::makeObject(
                    {{"seed", JsonValue::makeNumber(
                                  static_cast<double>(seed))},
                     {"workload",
                      JsonValue::makeObject(
                          {{"seed", JsonValue::makeNumber(
                                        static_cast<double>(seed))}})}});
                job.experiment = jsonDeepMerge(merged, seed_overlay);
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

}  // namespace sweep
}  // namespace proteus
