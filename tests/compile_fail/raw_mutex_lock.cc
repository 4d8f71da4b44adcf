// Must not compile: proteus::Mutex::lock() is private to MutexLock.
#include "common/sync.h"

void
rawLock(proteus::Mutex& mu)
{
    mu.lock();
}
