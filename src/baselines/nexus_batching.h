/**
 * @file
 * Nexus early-drop batching (paper §6.4): proactive but
 * work-conserving.
 *
 * Whenever the device goes idle, Nexus immediately drops the queries
 * that can no longer meet their deadline ("early drop") and executes
 * the largest batch whose completion still meets the head query's
 * deadline. It never waits for more queries to accumulate — the
 * work-conserving trait that costs it 2-3x more SLO violations than
 * Proteus when inter-arrivals are bursty (paper §6.4).
 *
 * This is the paper's lazy rule only ("drop queries that cannot meet
 * the deadline even executed immediately") plus a head-bounded batch
 * size, so under sustained backlog it burns capacity rescuing stale
 * heads with small batches.
 */

#ifndef PROTEUS_BASELINES_NEXUS_BATCHING_H_
#define PROTEUS_BASELINES_NEXUS_BATCHING_H_

#include "core/batching.h"

namespace proteus {

/** Work-conserving early-drop batching. */
class NexusBatching : public BatchingPolicy
{
  public:
    BatchAction decide(const WorkerView& view) override;

    const char* name() const override { return "nexus-early-drop"; }
};

}  // namespace proteus

#endif  // PROTEUS_BASELINES_NEXUS_BATCHING_H_
