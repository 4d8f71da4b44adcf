/**
 * @file
 * Annotated synchronisation primitives (DESIGN.md, "Static analysis").
 *
 * Thin zero-overhead wrappers over std::mutex that carry the Clang
 * thread-safety capability attributes from common/annotations.h.
 * libstdc++'s std::mutex / std::lock_guard are not annotated, so code
 * guarded by PROTEUS_GUARDED_BY must lock through these types for the
 * `-Wthread-safety` analysis to see the acquisition.
 *
 * Policy, and the gate that enforces each part:
 *
 *  - Mutex-protected state is annotated PROTEUS_GUARDED_BY(mu) and
 *    locked via the RAII MutexLock. Mutex::lock()/unlock() are
 *    private to MutexLock, so a raw call does not compile; proteus_lint
 *    rule C1 bans the unannotated std mutex and guard types in src/
 *    outside this file, the only other way to lock by hand.
 *  - A guard naming no real mutex fails clang -Wthread-safety.
 *  - Lock-order inversions and unguarded shared globals are reported
 *    by the ThreadSanitizer pass (tools/check.sh tsan).
 *
 * Everything here is header-only and trivially inlinable: under gcc
 * the wrappers compile to exactly the std::mutex / std::lock_guard
 * code they replace.
 */

#ifndef PROTEUS_COMMON_SYNC_H_
#define PROTEUS_COMMON_SYNC_H_

#include <mutex>

#include "common/annotations.h"

namespace proteus {

/**
 * Annotated exclusive mutex. Construction never allocates, so Mutex
 * members are safe in zero-allocation hot-path types (lint rule A1).
 */
class PROTEUS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

  private:
    friend class MutexLock;

    void lock() PROTEUS_ACQUIRE() { mu_.lock(); }
    void unlock() PROTEUS_RELEASE() { mu_.unlock(); }

    std::mutex mu_;
};

/**
 * RAII guard over a Mutex: acquires at construction, releases at
 * scope exit. The only way to lock a Mutex.
 */
class PROTEUS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mu) PROTEUS_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

    ~MutexLock() PROTEUS_RELEASE() { mu_.unlock(); }

  private:
    Mutex& mu_;
};

}  // namespace proteus

#endif  // PROTEUS_COMMON_SYNC_H_
