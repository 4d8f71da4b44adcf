// Fixture: C1 fires on std locking types in src/, the unannotated
// mutexes clang -Wthread-safety cannot see. The guard line carries a
// multi-rule suppression list with interior whitespace; weak_ptr's
// lock() and the <mutex> include stay inert.
#include <memory>
#include <mutex>

namespace fx {

std::mutex g_c1_mu;
std::shared_mutex g_c1_shared_mu;

void
guarded()
{
    std::lock_guard<std::mutex> lock(g_c1_mu);  // NOLINT-PROTEUS( C1 , D1 ): startup path, single-threaded by construction
}

int
notAMutex(const std::weak_ptr<int>& w)
{
    auto p = w.lock();
    return p ? *p : 0;
}

}  // namespace fx
