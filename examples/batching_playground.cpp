/**
 * @file
 * Batching playground: a single V100 worker serving one model under
 * micro-bursty arrivals, comparing the three adaptive batching
 * policies in isolation (the per-device view of paper §5/§6.4).
 *
 *   $ ./examples/batching_playground
 */

#include <deque>
#include <iostream>
#include <memory>

#include "baselines/aimd_batching.h"
#include "baselines/nexus_batching.h"
#include "common/table.h"
#include "core/batching.h"
#include "core/worker.h"
#include "models/model.h"
#include "workload/generators.h"

namespace {

using namespace proteus;

class Counter : public QueryObserver
{
  public:
    void onArrival(const Query&) override {}
    void
    onFinished(const Query& q) override
    {
        switch (q.status) {
          case QueryStatus::Served: ++served; break;
          case QueryStatus::ServedLate: ++late; break;
          case QueryStatus::Dropped: ++dropped; break;
          case QueryStatus::Pending: break;
        }
    }
    void
    onBatchDone(VariantId, std::size_t size) override
    {
        ++batches;
        batched += static_cast<int>(size);
    }
    int served = 0;
    int late = 0;
    int dropped = 0;
    int batches = 0;
    int batched = 0;
};

struct Outcome {
    int served = 0, late = 0, dropped = 0;
    double mean_batch = 0.0;
};

Outcome
runPolicy(std::unique_ptr<BatchingPolicy> policy,
          ArrivalProcess process, double qps)
{
    Cluster cluster;
    StandardTypes types = addStandardTypes(&cluster);
    cluster.addDevices(types.v100, 1);
    ModelRegistry reg;
    for (const auto& fam : miniModelZoo())
        reg.registerFamily(fam);
    CostModel cost(cluster, reg);
    ProfileStore profiles = profileModels(reg, cluster, cost);

    Simulator sim;
    Counter counter;
    Worker worker(&sim, &cluster, 0, &reg, &cost, &profiles, &counter,
                  nullptr);
    worker.setBatchingPolicy(std::move(policy));
    FamilyId resnet = reg.findFamily("resnet");
    worker.hostVariant(reg.mostAccurate(resnet), true);

    Trace trace = steadySingleFamilyTrace(resnet, qps, seconds(60.0),
                                          process, 99);
    std::deque<Query> arena;
    for (const auto& e : trace.events()) {
        sim.scheduleAt(e.at, [&, at = e.at] {
            arena.push_back(Query{});
            arena.back().family = resnet;
            arena.back().arrival = at;
            arena.back().deadline = at + profiles.slo(resnet);
            worker.enqueue(&arena.back());
        });
    }
    sim.run();
    Outcome out;
    out.served = counter.served;
    out.late = counter.late;
    out.dropped = counter.dropped;
    out.mean_batch = counter.batches
                         ? static_cast<double>(counter.batched) /
                               static_cast<double>(counter.batches)
                         : 0.0;
    return out;
}

}  // namespace

int
main()
{
    using namespace proteus;
    const double qps = 120.0;  // close to the device's peak

    std::cout << "single V100, resnet-152, " << qps
              << " QPS for 60 s per run\n\n";
    TextTable table;
    table.setHeader({"arrivals", "policy", "served", "late", "dropped",
                     "mean_batch"});
    for (ArrivalProcess process :
         {ArrivalProcess::Uniform, ArrivalProcess::Poisson,
          ArrivalProcess::Gamma}) {
        for (int p = 0; p < 3; ++p) {
            std::unique_ptr<BatchingPolicy> policy;
            const char* name = "";
            if (p == 0) {
                policy = std::make_unique<ProteusBatching>();
                name = "proteus";
            } else if (p == 1) {
                policy = std::make_unique<NexusBatching>();
                name = "nexus";
            } else {
                policy = std::make_unique<AimdBatching>();
                name = "aimd";
            }
            Outcome out = runPolicy(std::move(policy), process, qps);
            table.addRow({toString(process), name,
                          std::to_string(out.served),
                          std::to_string(out.late),
                          std::to_string(out.dropped),
                          fmtDouble(out.mean_batch, 1)});
        }
    }
    table.print(std::cout);
    std::cout << "\nThe non-work-conserving Proteus policy builds "
                 "larger batches by waiting exactly as long as the "
                 "head query's deadline allows; the gap versus Nexus "
                 "and AIMD widens as arrivals get burstier.\n";
    return 0;
}
