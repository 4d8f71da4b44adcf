/**
 * @file
 * Clipper's AIMD adaptive batching (paper §6.4): reactive.
 *
 * The policy maintains a target batch size B. It executes min(B,
 * queue) when enough queries accumulated or after a fixed wait, and
 * adapts B only on feedback: additively increasing it after clean
 * batches and multiplicatively backing off after a batch misses its
 * SLO. It never inspects queue deadlines — which is exactly why it
 * trails the proactive Proteus policy on bursty arrivals (paper:
 * 3.8-4x more violations on Poisson/Gamma traces).
 */

#ifndef PROTEUS_BASELINES_AIMD_BATCHING_H_
#define PROTEUS_BASELINES_AIMD_BATCHING_H_

#include "core/batching.h"

namespace proteus {

/** Additive-increase / multiplicative-decrease batching. */
class AimdBatching : public BatchingPolicy
{
  public:
    BatchAction decide(const WorkerView& view) override;
    void onBatchOutcome(int batch_size, bool any_violation) override;

    const char* name() const override { return "clipper-aimd"; }

    /** @return the current target batch size (for tests). */
    int targetBatch() const { return target_; }

  private:
    int target_ = 0;  ///< 0 = uninitialized
};

}  // namespace proteus

#endif  // PROTEUS_BASELINES_AIMD_BATCHING_H_
