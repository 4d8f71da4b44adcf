#include "baselines/nexus_batching.h"

#include <algorithm>

namespace proteus {

BatchAction
NexusBatching::decide(const WorkerView& view)
{
    BatchAction action;
    const auto& queue = *view.queue;
    if (queue.empty())
        return action;

    // Early drop: queries that cannot meet their deadline even if
    // executed alone right now.
    action.drop = countHopeless(view);
    int q = static_cast<int>(queue.size()) - action.drop;
    if (q <= 0)
        return action;

    const BatchProfile& prof = *view.profile;

    // Largest batch whose completion meets the head query's deadline.
    const Time t_exp1 =
        queue[static_cast<std::size_t>(action.drop)]->deadline;
    int k = std::min(q, prof.max_batch);
    while (k > 1 && view.now + prof.latencyFor(k) > t_exp1)
        --k;
    action.execute = k;  // work-conserving: always execute now
    return action;
}

}  // namespace proteus
