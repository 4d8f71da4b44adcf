#include "core/ilp_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "baselines/clipper.h"
#include "solver/milp.h"
#include "testing/fixtures.h"

namespace proteus {
namespace {

using testing::miniWorld;
using testing::paperWorld;
using testing::World;

/** Demand vector sized to the world, with per-family values. */
std::vector<double>
demandOf(const World& w, std::initializer_list<double> values)
{
    std::vector<double> d(w.registry.numFamilies(), 0.0);
    std::size_t i = 0;
    for (double v : values) {
        if (i >= d.size())
            break;
        d[i++] = v;
    }
    return d;
}

/** Checks the paper's constraints (Eqs. 1-6) on a plan. */
void
checkPlanInvariants(const World& w, const Allocation& plan,
                    const std::vector<double>& demand)
{
    // Eq. 1: one variant per device (by construction of hosting).
    ASSERT_EQ(plan.hosting.size(), w.cluster.numDevices());
    // Eq. 2: routed fraction per family <= 1.
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        EXPECT_LE(plan.routedFraction(f), 1.0 + 1e-9);
        // Eq. 3: every routed device hosts a variant of the family.
        for (const DeviceShare& s : plan.routing[f]) {
            ASSERT_TRUE(plan.hosting[s.device].has_value());
            EXPECT_EQ(w.registry.familyOf(*plan.hosting[s.device]), f);
            EXPECT_GT(s.weight, 0.0);
        }
    }
    // Eq. 5-ish: per-device assigned QPS within its peak capacity.
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        for (const DeviceShare& s : plan.routing[f]) {
            DeviceTypeId t = w.cluster.device(s.device).type;
            double peak =
                w.profiles->get(*plan.hosting[s.device], t).peak_qps;
            EXPECT_LE(s.weight * demand[f], peak * (1.0 + 1e-6))
                << "device " << s.device;
        }
    }
}

TEST(IlpAllocatorTest, MeetsFeasibleDemandExactly)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {100.0, 50.0, 30.0});
    Allocation plan = alloc.allocate(in);
    checkPlanInvariants(w, plan, in.demand_qps);
    for (FamilyId f = 0; f < 3; ++f)
        EXPECT_NEAR(plan.routedFraction(f), 1.0, 1e-6) << f;
    EXPECT_DOUBLE_EQ(plan.planned_fraction, 1.0);
}

TEST(IlpAllocatorTest, MaximizesAccuracyAtLowDemand)
{
    // With trivial demand the optimum hosts the most accurate
    // variants, so expected accuracy ~ 100.
    World w = miniWorld(4, 2, 2);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {2.0, 1.0, 1.0});
    Allocation plan = alloc.allocate(in);
    EXPECT_GT(plan.expected_accuracy, 99.0);
}

TEST(IlpAllocatorTest, ScalesAccuracyDownUnderLoad)
{
    World w = miniWorld(2, 1, 1);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput lo;
    lo.demand_qps = demandOf(w, {5.0, 2.0, 2.0});
    AllocationInput hi;
    hi.demand_qps = demandOf(w, {400.0, 150.0, 150.0});
    double acc_lo = alloc.allocate(lo).expected_accuracy;
    IlpAllocator alloc2(&w.registry, &w.cluster, w.profiles.get());
    double acc_hi = alloc2.allocate(hi).expected_accuracy;
    EXPECT_LT(acc_hi, acc_lo);
    EXPECT_GE(acc_hi, 80.0);
}

TEST(IlpAllocatorTest, BacksOffWhenOverloaded)
{
    World w = miniWorld(1, 0, 1);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {1e6, 1e6, 1e6});
    Allocation plan = alloc.allocate(in);
    EXPECT_LT(plan.planned_fraction, 1.0);
    EXPECT_GT(alloc.lastSolveMeta().backoff_steps, 0);
    // Still a valid plan: weights <= 1 etc.
    checkPlanInvariants(w, plan, in.demand_qps);
}

TEST(IlpAllocatorTest, BackoffFollowsPaperGrid)
{
    // §4 backoff: each infeasible solve scales demand by 1/1.05, so
    // the accepted plan serves exactly 1.05^-k of the demand.
    World w = miniWorld(2, 1, 1);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {2000.0, 800.0, 800.0});
    Allocation plan = alloc.allocate(in);
    const int k = alloc.lastSolveMeta().backoff_steps;
    ASSERT_GT(k, 0);
    ASSERT_LE(k, 200);
    const double expected = std::pow(1.05, -k);
    EXPECT_NEAR(plan.planned_fraction, expected, expected * 1e-9);
}

TEST(IlpAllocatorTest, BackoffReSolvesStartFromThePreviousBasis)
{
    // A feasible decision leaves a root basis; the next decision's
    // demand overloads the cluster, and every backoff step re-optimises
    // from the basis of the step before it (the dual simplex proves
    // each infeasible root and keeps its basis), so the accepted plan's
    // root is warm and nothing falls back to a cold solve. The plan is
    // the same as a fresh allocator's.
    World w = miniWorld(2, 1, 1);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {40.0, 20.0, 20.0});
    alloc.allocate(in);
    ASSERT_EQ(alloc.lastSolveMeta().backoff_steps, 0);

    in.demand_qps = demandOf(w, {2000.0, 800.0, 800.0});
    Allocation plan = alloc.allocate(in);
    const AllocatorSolveMeta meta = alloc.lastSolveMeta();
    EXPECT_GT(meta.backoff_steps, 0);
    EXPECT_TRUE(meta.warm_root);
    EXPECT_EQ(meta.cold_fallbacks, 0);
    EXPECT_EQ(meta.stop, SearchStop::Gap);

    IlpAllocator fresh(&w.registry, &w.cluster, w.profiles.get());
    Allocation ref = fresh.allocate(in);
    EXPECT_EQ(fresh.lastSolveMeta().backoff_steps, meta.backoff_steps);
    EXPECT_EQ(plan.planned_fraction, ref.planned_fraction);
}

/** Every field of two plans, compared with ==. */
void
expectSamePlan(const Allocation& got, const Allocation& want)
{
    EXPECT_EQ(got.hosting, want.hosting);
    ASSERT_EQ(got.routing.size(), want.routing.size());
    for (std::size_t f = 0; f < got.routing.size(); ++f) {
        ASSERT_EQ(got.routing[f].size(), want.routing[f].size());
        for (std::size_t i = 0; i < got.routing[f].size(); ++i) {
            EXPECT_EQ(got.routing[f][i].device, want.routing[f][i].device);
            EXPECT_EQ(got.routing[f][i].weight, want.routing[f][i].weight);
        }
    }
    EXPECT_EQ(got.planned_fraction, want.planned_fraction);
    EXPECT_EQ(got.expected_accuracy, want.expected_accuracy);
    EXPECT_EQ(got.planned_qps, want.planned_qps);
    EXPECT_EQ(got.family_capacity, want.family_capacity);
    EXPECT_EQ(got.planned_demand, want.planned_demand);
}

TEST(IlpAllocatorTest, PersistentWorkspaceMatchesAFreshAllocator)
{
    // One allocator keeps its decision workspace across a sequence that
    // shrinks and regrows the LP; before each step a copy (same options
    // and carried root basis, empty workspace) decides too. Plans and
    // solver counts must be equal at every step, so no buffer carries
    // state from one decision into the next.
    World w = miniWorld(4, 2, 2);
    const std::size_t D = w.cluster.numDevices();
    struct Step {
        std::vector<double> demand;
        std::vector<char> down;
        bool feed_current;
    };
    std::vector<char> v100s_down(D, 0);
    v100s_down[6] = v100s_down[7] = 1;
    std::vector<char> cpu_down(D, 0);
    cpu_down[1] = 1;
    const std::vector<Step> steps = {
        {demandOf(w, {120.0, 80.0, 60.0}), {}, false},
        {demandOf(w, {150.0, 60.0, 90.0}), {}, true},
        {demandOf(w, {150.0, 60.0, 90.0}), v100s_down, true},  // type gone
        {demandOf(w, {90.0, 110.0, 40.0}), cpu_down, true},
        {demandOf(w, {90.0, 110.0, 40.0}), {}, true},  // devices back
        {demandOf(w, {100.0, 0.0, 70.0}), {}, true},   // family gone
        {demandOf(w, {100.0, 50.0, 70.0}), {}, true},  // and back
        {demandOf(w, {4000.0, 3000.0, 3000.0}), {}, true},  // backoff
        {demandOf(w, {60.0, 60.0, 60.0}), {}, false},  // no keep columns
        {demandOf(w, {80.0, 40.0, 60.0}), {}, true},   // keep columns back
        {demandOf(w, {0.0, 0.0, 0.0}), {}, true},
        {demandOf(w, {120.0, 80.0, 60.0}), cpu_down, true},
    };

    IlpAllocator persistent(&w.registry, &w.cluster, w.profiles.get());
    Allocation current;
    int backoffs = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(i));
        AllocationInput in;
        in.demand_qps = steps[i].demand;
        in.device_down = steps[i].down;
        if (steps[i].feed_current)
            in.current = &current;
        IlpAllocator fresh(persistent);
        Allocation got = persistent.allocate(in);
        const Allocation want = fresh.allocate(in);
        expectSamePlan(got, want);
        const AllocatorSolveMeta g = persistent.lastSolveMeta();
        const AllocatorSolveMeta f = fresh.lastSolveMeta();
        EXPECT_EQ(g.nodes, f.nodes);
        EXPECT_EQ(g.simplex_iterations, f.simplex_iterations);
        EXPECT_EQ(g.gap, f.gap);
        EXPECT_EQ(g.backoff_steps, f.backoff_steps);
        EXPECT_EQ(g.stop, f.stop);
        EXPECT_EQ(g.warm_root, f.warm_root);
        EXPECT_EQ(g.cold_fallbacks, f.cold_fallbacks);
        for (DeviceId d = 0; d < D; ++d) {
            if (in.isDown(d)) {
                EXPECT_FALSE(got.hosting[d].has_value()) << "device " << d;
            }
        }
        backoffs += g.backoff_steps > 0 ? 1 : 0;
        current = std::move(got);
    }
    EXPECT_EQ(backoffs, 1);
}

TEST(IlpAllocatorTest, ZeroDemandHostsNothing)
{
    World w = miniWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {0.0, 0.0, 0.0});
    Allocation plan = alloc.allocate(in);
    for (const auto& h : plan.hosting)
        EXPECT_FALSE(h.has_value());
}

TEST(IlpAllocatorTest, ZeroDemandKeepsCurrentHosting)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {100.0, 40.0, 30.0});
    const Allocation first = alloc.allocate(in);

    // Demand vanishes: nothing is worth a reload, and nothing routes.
    AllocationInput idle;
    idle.demand_qps = demandOf(w, {0.0, 0.0, 0.0});
    idle.current = &first;
    const Allocation second = alloc.allocate(idle);
    int hosted = 0;
    for (DeviceId d = 0; d < w.cluster.numDevices(); ++d) {
        if (first.hosting[d]) {
            ++hosted;
            EXPECT_EQ(second.hosting[d], first.hosting[d]) << "device " << d;
        }
    }
    EXPECT_GT(hosted, 0);
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f)
        EXPECT_TRUE(second.routing[f].empty()) << "family " << f;
}

TEST(IlpAllocatorTest, ChurnMinimizingExpansionKeepsDevices)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demandOf(w, {100.0, 40.0, 30.0});
    Allocation first = alloc.allocate(in);
    // Same demand again, current plan supplied: nothing should move.
    AllocationInput in2 = in;
    in2.current = &first;
    Allocation second = alloc.allocate(in2);
    int moved = 0;
    for (DeviceId d = 0; d < w.cluster.numDevices(); ++d)
        moved += first.hosting[d] != second.hosting[d];
    EXPECT_EQ(moved, 0);
}

TEST(IlpAllocatorTest, FixMostAccurateAblation)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocatorOptions opts;
    opts.variant_filter = mostAccurateOnly(&w.registry);
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(), opts);
    AllocationInput in;
    in.demand_qps = demandOf(w, {50.0, 20.0, 10.0});
    Allocation plan = alloc.allocate(in);
    for (DeviceId d = 0; d < w.cluster.numDevices(); ++d) {
        if (!plan.hosting[d])
            continue;
        VariantId v = *plan.hosting[d];
        EXPECT_EQ(v, w.registry.mostAccurate(w.registry.familyOf(v)));
    }
}

TEST(IlpAllocatorTest, UniformAssignmentAblation)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocatorOptions opts;
    opts.uniform_assignment = true;
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(), opts);
    AllocationInput in;
    in.demand_qps = demandOf(w, {200.0, 50.0, 30.0});
    Allocation plan = alloc.allocate(in);
    for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
        if (plan.routing[f].size() < 2)
            continue;
        double first = plan.routing[f][0].weight;
        for (const auto& s : plan.routing[f])
            EXPECT_NEAR(s.weight, first, 1e-9);
    }
}

TEST(IlpAllocatorTest, VariantFilterRestrictsSelection)
{
    World w = miniWorld(4, 2, 2);
    IlpAllocatorOptions opts;
    VariantId only = w.registry.leastAccurate(0);
    opts.variant_filter = [&w, only](VariantId v) {
        return w.registry.familyOf(v) != 0 || v == only;
    };
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(), opts);
    AllocationInput in;
    in.demand_qps = demandOf(w, {50.0, 20.0, 10.0});
    Allocation plan = alloc.allocate(in);
    for (const auto& h : plan.hosting) {
        if (h && w.registry.familyOf(*h) == 0) {
            EXPECT_EQ(*h, only);
        }
    }
}

TEST(IlpAllocatorTest, DominatedVariantsGetNoColumn)
{
    // A variant that a sibling beats on a device type in accuracy and
    // in peak throughput (strictly in one) gets no column there, so no
    // plan hosts it on that type, whatever the demand or churn bonus.
    World w = paperWorld();
    const std::size_t T = w.cluster.numTypes();
    const std::size_t M = w.registry.numVariants();
    std::vector<std::vector<bool>> dominated(T, std::vector<bool>(M));
    int num_dominated = 0;
    for (DeviceTypeId t = 0; t < T; ++t) {
        for (VariantId m = 0; m < M; ++m) {
            const BatchProfile& p = w.profiles->get(m, t);
            const double acc = w.registry.variant(m).accuracy;
            for (VariantId o : w.registry.variantsOf(w.registry.familyOf(m))) {
                const BatchProfile& op = w.profiles->get(o, t);
                const double oacc = w.registry.variant(o).accuracy;
                if (o != m && p.usable() && op.usable() && oacc >= acc &&
                    op.peak_qps >= p.peak_qps &&
                    (oacc > acc || op.peak_qps > p.peak_qps))
                    dominated[t][m] = true;
            }
            num_dominated += dominated[t][m] ? 1 : 0;
        }
    }
    ASSERT_GT(num_dominated, 0);

    // Two paper-zoo decisions that solve in well under a second: a cold
    // one, then a skewed re-plan from it with churn keep bonuses.
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps.assign(w.registry.numFamilies(), 50.0);
    const Allocation first = alloc.allocate(in);
    for (std::size_t f = 0; f < in.demand_qps.size(); ++f)
        in.demand_qps[f] = 40.0 + 35.0 * static_cast<double>(f);
    in.current = &first;
    const Allocation second = alloc.allocate(in);
    for (const Allocation* plan : {&first, &second}) {
        for (DeviceId d = 0; d < plan->hosting.size(); ++d) {
            const auto& h = plan->hosting[d];
            EXPECT_FALSE(h && dominated[w.cluster.device(d).type][*h])
                << "device " << d << " hosts variant " << *h;
        }
    }

    // Dominance counts only variants the filter allows: pinned alone, a
    // variant that its siblings dominate on every type still serves.
    std::optional<VariantId> found;
    for (VariantId m = 0; m < M && !found; ++m) {
        bool everywhere = true;
        bool usable = false;
        for (DeviceTypeId t = 0; t < T; ++t) {
            if (w.profiles->get(m, t).usable()) {
                usable = true;
                everywhere = everywhere && dominated[t][m];
            }
        }
        if (usable && everywhere)
            found = m;
    }
    ASSERT_TRUE(found.has_value());
    {
        const VariantId beaten = *found;
        IlpAllocatorOptions opts;
        opts.variant_filter = [&w, beaten](VariantId v) {
            return w.registry.familyOf(v) != w.registry.familyOf(beaten) ||
                   v == beaten;
        };
        IlpAllocator pinned(&w.registry, &w.cluster, w.profiles.get(), opts);
        AllocationInput pin;
        pin.demand_qps.assign(w.registry.numFamilies(), 0.0);
        pin.demand_qps[w.registry.familyOf(beaten)] = 10.0;
        const Allocation plan = pinned.allocate(pin);
        int hosting = 0;
        for (const auto& h : plan.hosting)
            hosting += h && *h == beaten ? 1 : 0;
        EXPECT_GT(hosting, 0) << "variant " << beaten;
    }

    // Under Clipper's filter only the pinned variant of each family is
    // a candidate, and the others cannot crowd it out: each family is
    // served by its pinned variant alone.
    for (ClipperMode mode :
         {ClipperMode::HighThroughput, ClipperMode::HighAccuracy}) {
        ClipperAllocator clipper(&w.registry, &w.cluster, w.profiles.get(),
                                 mode);
        AllocationInput cin;
        cin.demand_qps.assign(w.registry.numFamilies(), 10.0);
        const Allocation plan = clipper.allocate(cin);
        for (FamilyId f = 0; f < w.registry.numFamilies(); ++f) {
            // The least or most accurate variant usable on some type.
            std::vector<VariantId> vs = w.registry.variantsOf(f);
            if (mode == ClipperMode::HighAccuracy)
                std::reverse(vs.begin(), vs.end());
            VariantId pinned = vs.front();
            for (VariantId v : vs) {
                bool usable = false;
                for (DeviceTypeId t = 0; t < T; ++t)
                    usable |= w.profiles->get(v, t).usable();
                if (usable) {
                    pinned = v;
                    break;
                }
            }
            int hosting = 0;
            for (const auto& h : plan.hosting) {
                if (h && w.registry.familyOf(*h) == f) {
                    EXPECT_EQ(*h, pinned) << "family " << f;
                    ++hosting;
                }
            }
            EXPECT_GT(hosting, 0) << "family " << f;
        }
    }
}

TEST(IlpAllocatorTest, AggregatedMatchesPerDeviceFormulation)
{
    // On a small instance, the device-type aggregation must reach the
    // same optimal objective as the verbatim per-device MILP of §4.
    World w = miniWorld(2, 1, 1);
    std::vector<double> demand = demandOf(w, {60.0, 25.0, 0.0});

    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps = demand;
    Allocation plan = alloc.allocate(in);

    LinearProgram per_device =
        buildPerDeviceMilp(w.registry, w.cluster, *w.profiles, demand);
    MilpSolver::Options mo;
    mo.time_limit_sec = 60.0;
    Solution ref = MilpSolver(mo).solve(per_device);
    ASSERT_TRUE(ref.hasSolution());

    // Compare accuracy-weighted served QPS. The aggregated model has
    // a tiny replica penalty; tolerate it.
    double plan_obj = plan.expected_accuracy * plan.planned_qps;
    EXPECT_NEAR(plan_obj, ref.objective, ref.objective * 0.01);
}

TEST(IlpAllocatorTest, PaperScaleSolvesFast)
{
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    std::vector<double> demand(w.registry.numFamilies(), 50.0);
    AllocationInput in;
    in.demand_qps = demand;
    Allocation plan = alloc.allocate(in);
    EXPECT_GT(plan.expected_accuracy, 90.0);
    EXPECT_LT(alloc.lastSolveMeta().wall_seconds, 5.0);
}

TEST(IlpAllocatorTest, PaperZooSolveEffortIsPinned)
{
    // Branch & bound effort of two paper-zoo decisions. The first is a
    // cold solve that ends at the root on the warm-start hint; the
    // second, re-planning from the first plan with churn keep bonuses,
    // starts its root from the first decision's basis and branches,
    // each child re-optimising from its parent's basis. Optimisations
    // that keep the pivot sequence and the hint must reproduce them
    // exactly. The hint's work counts are pinned too: its local-search
    // moves and the family scores it computed.
    World w = paperWorld();
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get());
    AllocationInput in;
    in.demand_qps.assign(w.registry.numFamilies(), 50.0);
    Allocation first = alloc.allocate(in);
    EXPECT_EQ(alloc.lastSolveMeta().nodes, 1);
    EXPECT_EQ(alloc.lastSolveMeta().simplex_iterations, 93);
    EXPECT_FALSE(alloc.lastSolveMeta().warm_root);
    EXPECT_EQ(alloc.lastSolveMeta().gap, 0.0);
    EXPECT_EQ(alloc.lastSolveMeta().backoff_steps, 0);
    EXPECT_EQ(alloc.lastSolveMeta().hint_moves, 2968);
    EXPECT_EQ(alloc.lastSolveMeta().hint_rescores, 422);
    EXPECT_EQ(first.expected_accuracy, 96.533333333333331);

    for (std::size_t f = 0; f < in.demand_qps.size(); ++f)
        in.demand_qps[f] = 40.0 + 35.0 * static_cast<double>(f);
    in.current = &first;
    Allocation second = alloc.allocate(in);
    EXPECT_EQ(alloc.lastSolveMeta().nodes, 315);
    EXPECT_EQ(alloc.lastSolveMeta().simplex_iterations, 3553);
    EXPECT_TRUE(alloc.lastSolveMeta().warm_root);
    EXPECT_EQ(alloc.lastSolveMeta().cold_fallbacks, 0);
    EXPECT_EQ(alloc.lastSolveMeta().stop, SearchStop::Gap);
    EXPECT_EQ(alloc.lastSolveMeta().gap, 0.0);
    EXPECT_EQ(alloc.lastSolveMeta().backoff_steps, 0);
    EXPECT_EQ(alloc.lastSolveMeta().hint_moves, 2025);
    EXPECT_EQ(alloc.lastSolveMeta().hint_rescores, 530);
    EXPECT_EQ(second.expected_accuracy, 90.102252387670788);
    EXPECT_EQ(second.planned_qps, 1620.0);
}

/**
 * A cold paper-zoo decision with the same demand, @p qps, for every
 * family: a probe of the branch & bound tree's size. The wall-clock
 * backstop is raised so that a slow (sanitized) build also ends on the
 * gap; the search itself is bounded by the deterministic work budget.
 */
struct ColdProbe {
    AllocatorSolveMeta meta;
    double expected_accuracy = 0.0;
};

ColdProbe
coldPaperZooProbe(double qps)
{
    World w = paperWorld();
    IlpAllocatorOptions opts;
    opts.milp_time_limit_sec = 600.0;
    IlpAllocator alloc(&w.registry, &w.cluster, w.profiles.get(), opts);
    AllocationInput in;
    in.demand_qps.assign(w.registry.numFamilies(), qps);
    const Allocation plan = alloc.allocate(in);
    return ColdProbe{alloc.lastSolveMeta(), plan.expected_accuracy};
}

TEST(IlpAllocatorTest, ColdPaperZooProbeAt10QpsIsPinned)
{
    // The largest tree of the cold probes that end on the gap (50 qps
    // ends at the root: PaperZooSolveEffortIsPinned). Changes to
    // branching, node selection or cuts show here as exact counts.
    const ColdProbe probe = coldPaperZooProbe(10.0);
    EXPECT_EQ(probe.meta.nodes, 18463);
    EXPECT_EQ(probe.meta.simplex_iterations, 207565);
    EXPECT_EQ(probe.meta.stop, SearchStop::Gap);
    EXPECT_EQ(probe.meta.backoff_steps, 0);
    EXPECT_EQ(probe.expected_accuracy, 98.407549663884737);
}

TEST(IlpAllocatorTest, ColdPaperZooProbeAt120QpsIsPinned)
{
    const ColdProbe probe = coldPaperZooProbe(120.0);
    EXPECT_EQ(probe.meta.nodes, 3207);
    EXPECT_EQ(probe.meta.simplex_iterations, 36223);
    EXPECT_EQ(probe.meta.stop, SearchStop::Gap);
    EXPECT_EQ(probe.meta.backoff_steps, 0);
    EXPECT_EQ(probe.expected_accuracy, 94.626330368366354);
}

}  // namespace
}  // namespace proteus
