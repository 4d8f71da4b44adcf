/**
 * @file
 * Shared test fixtures: small clusters, registries and profile stores
 * used across the module tests.
 */

#ifndef PROTEUS_TESTS_TESTING_FIXTURES_H_
#define PROTEUS_TESTS_TESTING_FIXTURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/device.h"
#include "core/serving_system.h"
#include "models/cost_model.h"
#include "models/model.h"
#include "models/profiler.h"
#include "sweep/runner.h"
#include "workload/generators.h"

namespace proteus {
namespace testing {

/** A tiny world: cluster + registry + cost model + profiles. */
struct World {
    Cluster cluster;
    StandardTypes types;
    ModelRegistry registry;
    std::unique_ptr<CostModel> cost;
    std::unique_ptr<ProfileStore> profiles;
};

/** Build a world with the mini zoo on a small mixed cluster. */
inline World
miniWorld(int cpus = 4, int gtx = 2, int v100 = 2,
          ProfilerOptions options = {})
{
    World w;
    w.types = addStandardTypes(&w.cluster);
    w.cluster.addDevices(w.types.cpu, cpus);
    w.cluster.addDevices(w.types.gtx1080ti, gtx);
    w.cluster.addDevices(w.types.v100, v100);
    for (const auto& fam : miniModelZoo())
        w.registry.registerFamily(fam);
    w.cost = std::make_unique<CostModel>(w.cluster, w.registry);
    w.profiles = std::make_unique<ProfileStore>(
        profileModels(w.registry, w.cluster, *w.cost, options));
    return w;
}

/** Build a world with the full Table 3 zoo on the paper cluster. */
inline World
paperWorld(ProfilerOptions options = {})
{
    World w;
    w.cluster = paperCluster(&w.types);
    w.registry = paperRegistry();
    w.cost = std::make_unique<CostModel>(w.cluster, w.registry);
    w.profiles = std::make_unique<ProfileStore>(
        profileModels(w.registry, w.cluster, *w.cost, options));
    return w;
}

/**
 * The random-crash mini-zoo run: 40 s of 50 qps Poisson arrivals per
 * family while devices crash at 90 per hour (10 s mean downtime), so
 * crashes abort batches in flight. Built in place, since the system
 * borrows the world.
 */
struct RandomCrashRun {
    RandomCrashRun(std::uint64_t seed, bool obs)
        : world(miniWorld()),
          system(&world.cluster, &world.registry, config(seed, obs)),
          result(system.run(steadyTrace(world.registry.numFamilies(),
                                        50.0, seconds(40.0),
                                        ArrivalProcess::Poisson, seed)))
    {}

    static SystemConfig
    config(std::uint64_t seed, bool obs)
    {
        SystemConfig cfg;
        cfg.seed = seed;
        cfg.obs.enabled = obs;
        cfg.faults.seed = seed;
        cfg.faults.random.crash_rate_per_hour = 90.0;
        cfg.faults.random.mean_downtime = seconds(10.0);
        return cfg;
    }

    World world;
    ServingSystem system;
    RunResult result;
};

// ---------------------------------------------------------------------------
// SeedSweep: the shared N-seed byte-determinism harness
// ---------------------------------------------------------------------------

/** Shape of a seed sweep: [first, first + count) across threads. */
struct SeedSweepOptions {
    std::uint64_t first = 1;  ///< first seed (inclusive)
    int count = 20;           ///< number of seeds
    int threads = 4;          ///< worker threads (sweep::parallelFor)
};

/**
 * Run @p fn(seed) once per seed across the sweep runner's worker
 * pool and return the fingerprints in seed order. @p fn must be
 * callable concurrently from multiple threads — build any World or
 * system state inside the function, never share it across seeds.
 */
template <typename Fn>
std::vector<std::string>
runSeedSweep(Fn&& fn, SeedSweepOptions opts = {})
{
    std::vector<std::string> out(static_cast<std::size_t>(opts.count));
    sweep::parallelFor(out.size(), opts.threads, [&](std::size_t i) {
        out[i] = fn(opts.first + static_cast<std::uint64_t>(i));
    });
    return out;
}

/**
 * The shared 20-seed byte-determinism pattern: run @p fn twice per
 * seed in parallel and assert the fingerprints are byte-identical.
 * Pairs run concurrently across seeds, so this also exercises the
 * claim that parallel in-process runs do not perturb each other.
 * Assertions fire on the calling thread (gtest EXPECT_* is not
 * guaranteed thread-safe), so workers only collect strings.
 */
template <typename Fn>
void
expectSeedSweepByteIdentical(Fn&& fn, SeedSweepOptions opts = {})
{
    std::vector<std::pair<std::string, std::string>> runs(
        static_cast<std::size_t>(opts.count));
    sweep::parallelFor(runs.size(), opts.threads, [&](std::size_t i) {
        const std::uint64_t seed =
            opts.first + static_cast<std::uint64_t>(i);
        runs[i].first = fn(seed);
        runs[i].second = fn(seed);
    });
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::uint64_t seed =
            opts.first + static_cast<std::uint64_t>(i);
        EXPECT_FALSE(runs[i].first.empty()) << "seed " << seed;
        EXPECT_EQ(runs[i].first, runs[i].second)
            << "same-seed runs differ at seed " << seed;
    }
}

}  // namespace testing
}  // namespace proteus

#endif  // PROTEUS_TESTS_TESTING_FIXTURES_H_
