/**
 * @file
 * Deliberate lock-order inversion proving ThreadSanitizer's deadlock
 * detector fires on proteus::Mutex.
 *
 * One thread takes A then B, a second thread B then A, each through
 * MutexLock. The second thread starts only after the first has joined,
 * so the run never actually deadlocks: tsan flags the cycle in the
 * lock-order graph (lock-order-inversion) and exits nonzero. The ctest
 * entry (tsan_detects_lock_order_inversion) is registered only when
 * PROTEUS_SANITIZE matches "thread" and carries WILL_FAIL.
 */

#include <thread>

#include "common/sync.h"

namespace {

proteus::Mutex g_a;
proteus::Mutex g_b;
int g_touched = 0;

void
aThenB()
{
    proteus::MutexLock la(g_a);
    proteus::MutexLock lb(g_b);
    ++g_touched;
}

void
bThenA()
{
    proteus::MutexLock lb(g_b);
    proteus::MutexLock la(g_a);
    ++g_touched;
}

}  // namespace

int
main()
{
    std::thread first(aThenB);
    first.join();
    std::thread second(bThenA);
    second.join();
    // Exit 0: the only failure signal is tsan's own report.
    return 0;
}
