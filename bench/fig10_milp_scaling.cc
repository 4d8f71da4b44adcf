/**
 * @file
 * Figure 10 reproduction: scalability of the MILP with respect to its
 * input parameters (§6.8) — devices (d), model variants (m) and query
 * types (q). Each sweep varies one parameter with the others fixed
 * and reports the wall-clock time of an exact solve of the verbatim
 * per-device formulation (x_{d,m} booleans), with the paper's 60 s
 * budget.
 */

#include <iostream>

#include "common/clock.h"
#include "common/table.h"
#include "core/ilp_allocator.h"
#include "models/cost_model.h"
#include "models/model.h"
#include "models/profiler.h"
#include "solver/milp.h"

namespace proteus {
namespace {

/** Synthetic zoo: @p families each with @p variants_per variants. */
std::vector<FamilySpec>
syntheticZoo(int families, int variants_per)
{
    std::vector<FamilySpec> zoo;
    for (int f = 0; f < families; ++f) {
        FamilySpec fam;
        fam.name = "family-" + std::to_string(f);
        fam.task = "synthetic";
        for (int v = 0; v < variants_per; ++v) {
            VariantSpec spec;
            spec.name = fam.name + "-v" + std::to_string(v);
            double frac = variants_per > 1
                              ? static_cast<double>(v) /
                                    (variants_per - 1)
                              : 1.0;
            spec.gflops = 0.5 + 10.0 * frac * (1.0 + 0.1 * f);
            spec.params_m = 5.0 + 50.0 * frac;
            spec.accuracy = 82.0 + 18.0 * frac;
            fam.variants.push_back(spec);
        }
        zoo.push_back(std::move(fam));
    }
    return zoo;
}

struct Measurement {
    double seconds = 0.0;
    SolveStatus status = SolveStatus::Infeasible;
    std::int64_t nodes = 0;
};

Measurement
solveInstance(int devices, int families, int variants_per)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    // Spread devices over the three standard types.
    cluster.addDevices(types.cpu, devices / 2);
    cluster.addDevices(types.gtx1080ti, devices / 4);
    cluster.addDevices(types.v100,
                       devices - devices / 2 - devices / 4);

    ModelRegistry reg;
    for (const auto& fam : syntheticZoo(families, variants_per))
        reg.registerFamily(fam);
    CostModel cost(cluster, reg);
    ProfileStore profiles = profileModels(reg, cluster, cost);

    std::vector<double> demand(reg.numFamilies());
    for (std::size_t f = 0; f < demand.size(); ++f)
        demand[f] = 40.0 / (1.0 + static_cast<double>(f));

    LinearProgram lp =
        buildPerDeviceMilp(reg, cluster, profiles, demand);
    MilpSolver::Options opts;
    opts.time_limit_sec = 60.0;  // paper's budget
    opts.gap_tol = 1e-3;

    const WallTimer timer;
    Solution sol = MilpSolver(opts).solve(lp);
    Measurement m;
    m.seconds = timer.elapsedSeconds();
    m.status = sol.status;
    m.nodes = sol.work;
    return m;
}

void
sweep(const char* name, const std::vector<std::array<int, 3>>& points)
{
    std::cout << "-- sweep: " << name << " (per-device formulation, "
                 "60 s budget) --\n";
    TextTable table;
    table.setHeader({"devices", "variants", "query_types", "time_s",
                     "status", "bb_nodes"});
    for (const auto& [d, f, vp] : points) {
        Measurement m = solveInstance(d, f, vp);
        table.addRow({std::to_string(d), std::to_string(f * vp),
                      std::to_string(f), fmtDouble(m.seconds, 2),
                      toString(m.status), std::to_string(m.nodes)});
    }
    table.print(std::cout);
    std::cout << "\n";
}

}  // namespace
}  // namespace proteus

int
main()
{
    using namespace proteus;
    std::cout << "== Fig. 10: MILP scalability vs (d, m, q) ==\n\n";
    // Devices sweep: m, q fixed (4 families x 3 variants).
    sweep("devices", {{{8, 4, 3}},
                      {{16, 4, 3}},
                      {{32, 4, 3}},
                      {{64, 4, 3}},
                      {{96, 4, 3}},
                      {{160, 4, 3}}});
    // Variants sweep: d, q fixed.
    sweep("variants", {{{16, 4, 3}},
                       {{16, 4, 6}},
                       {{16, 4, 12}},
                       {{16, 4, 24}},
                       {{16, 4, 48}},
                       {{16, 4, 114}}});
    // Query-types sweep: d fixed, 3 variants per family.
    sweep("query types", {{{16, 2, 3}},
                          {{16, 4, 3}},
                          {{16, 8, 3}},
                          {{16, 12, 3}},
                          {{16, 17, 3}}});
    std::cout << "Paper shape check: solve time grows with every "
                 "parameter; the 60 s budget caps the largest "
                 "instances (the paper reports feasibility up to 160 "
                 "devices / 450 variants / 17 query types under "
                 "Gurobi; this repository's warm-started dual simplex "
                 "B&B reaches the device and variant scales, while "
                 "12+ query types still exhaust the budget in tree "
                 "search).\n";
    return 0;
}
