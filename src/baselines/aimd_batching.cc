#include "baselines/aimd_batching.h"

#include <algorithm>

namespace proteus {

namespace {

/** Target batch size before the first feedback. */
constexpr int kInitialBatch = 1;
/** Additive increment after a clean batch. */
constexpr int kIncrease = 1;
/** Multiplicative factor after an SLO miss. */
constexpr double kDecrease = 0.5;
/** Max wait before a partial batch executes, as a fraction of the SLO. */
constexpr double kWaitSloFrac = 0.25;

}  // namespace

BatchAction
AimdBatching::decide(const WorkerView& view)
{
    BatchAction action;
    const auto& queue = *view.queue;
    if (queue.empty())
        return action;

    // AIMD probes beyond the SLO-safe batch size on purpose; it is
    // only capped by what the device memory fits (the profiled range).
    const int hard_cap =
        static_cast<int>(view.profile->latency.size());
    if (target_ == 0)
        target_ = std::min(kInitialBatch, hard_cap);
    target_ = std::min(target_, hard_cap);

    if (static_cast<int>(queue.size()) >= target_) {
        action.execute = target_;
        return action;
    }
    // Not enough queries for a full batch: wait a fixed fraction of
    // the SLO from the head query's arrival, then flush.
    const Time flush_at =
        queue.front()->arrival +
        static_cast<Duration>(static_cast<double>(view.slo) *
                              kWaitSloFrac);
    if (view.now >= flush_at) {
        action.execute = static_cast<int>(queue.size());
        return action;
    }
    action.wake_at = flush_at;
    return action;
}

void
AimdBatching::onBatchOutcome(int batch_size, bool any_violation)
{
    (void)batch_size;
    if (target_ == 0)
        return;
    if (any_violation) {
        target_ = std::max(
            1, static_cast<int>(target_ * kDecrease));
    } else {
        target_ += kIncrease;
    }
}

}  // namespace proteus
