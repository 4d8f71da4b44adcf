/**
 * @file
 * Thread-safety annotations (DESIGN.md, "Static analysis").
 *
 * Every PROTEUS_* macro below maps to one of Clang's thread-safety
 * attributes when the compiler supports them (`clang++
 * -Wthread-safety`, the `tsa` pass in tools/check.sh and the
 * thread-safety CI job) and expands to nothing everywhere else, so
 * annotated code compiles unchanged under gcc.
 *
 * The annotations carry the locking discipline in the type system:
 * which mutex guards which data (PROTEUS_GUARDED_BY), and which types
 * are lock capabilities or RAII scopes (PROTEUS_CAPABILITY, PROTEUS_SCOPED_CAPABILITY). They are
 * checked statically by Clang's `-Wthread-safety` analysis over the
 * whole tree (promoted to an error in CI), which also rejects a
 * PROTEUS_GUARDED_BY naming no real mutex. What the annotations cannot
 * express — lock order, and shared state nobody annotated — the
 * ThreadSanitizer pass (`tools/check.sh tsan`) checks at run time.
 *
 * Standard library types (std::mutex, std::lock_guard) are not
 * annotated on libstdc++, so annotated code uses the proteus::Mutex /
 * proteus::MutexLock wrappers from common/sync.h — see that header
 * for the policy.
 *
 * The macro set follows the Clang "Thread Safety Analysis" docs; only
 * the attributes this tree actually uses are defined, so a grep for
 * PROTEUS_ finds real sites, not boilerplate.
 */

#ifndef PROTEUS_COMMON_ANNOTATIONS_H_
#define PROTEUS_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define PROTEUS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PROTEUS_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/** Marks a type as a lock capability ("mutex" in diagnostics). */
#define PROTEUS_CAPABILITY(x) PROTEUS_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define PROTEUS_SCOPED_CAPABILITY PROTEUS_THREAD_ANNOTATION_(scoped_lockable)

/** Data member / global readable-writable only with @p x held. */
#define PROTEUS_GUARDED_BY(x) PROTEUS_THREAD_ANNOTATION_(guarded_by(x))

/** Function that acquires the listed capabilities and does not release. */
#define PROTEUS_ACQUIRE(...) \
    PROTEUS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function that releases the listed capabilities. */
#define PROTEUS_RELEASE(...) \
    PROTEUS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

#endif  // PROTEUS_COMMON_ANNOTATIONS_H_
