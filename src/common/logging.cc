#include "common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/sync.h"

namespace proteus {

namespace {

// The sweep runner executes simulators on several threads at once, so
// the time-source pair (owner, fn) and emission are mutex-guarded:
// registration is atomic with respect to emit(), and emit() calls the
// fn under the lock so clearLogTimeSource() in a dying simulator's
// destructor cannot race a concurrent log line into use-after-free.
Mutex g_mu;
LogLevel g_level PROTEUS_GUARDED_BY(g_mu) = LogLevel::Warn;

const void* g_time_owner PROTEUS_GUARDED_BY(g_mu) = nullptr;
double (*g_time_fn)(const void*) PROTEUS_GUARDED_BY(g_mu) = nullptr;

/** The innermost live FatalContext of this thread, or null. */
thread_local const std::string* t_fatal_context = nullptr;

}  // namespace

FatalContext::FatalContext(std::string what)
    : what_(std::move(what)), outer_(t_fatal_context)
{
    t_fatal_context = &what_;
}

FatalContext::~FatalContext() { t_fatal_context = outer_; }

void
setLogLevel(LogLevel level)
{
    const MutexLock lock(g_mu);
    g_level = level;
}

LogLevel
logLevel()
{
    const MutexLock lock(g_mu);
    return g_level;
}

void
setLogTimeSource(const void* owner, double (*fn)(const void*))
{
    const MutexLock lock(g_mu);
    g_time_owner = owner;
    g_time_fn = fn;
}

void
clearLogTimeSource(const void* owner)
{
    const MutexLock lock(g_mu);
    if (g_time_owner != owner)
        return;
    g_time_owner = nullptr;
    g_time_fn = nullptr;
}

namespace detail {

void
emit(LogLevel level, const std::string& tag, const std::string& msg)
{
    const MutexLock lock(g_mu);
    if (static_cast<int>(level) > static_cast<int>(g_level))
        return;
    if (g_time_fn) {
        char at[32];
        std::snprintf(at, sizeof(at), "@%.3fs ",
                      g_time_fn(g_time_owner));
        std::cerr << "[" << tag << "] " << at << msg << "\n";
        return;
    }
    std::cerr << "[" << tag << "] " << msg << "\n";
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::cerr << "panic: " << msg << " (" << file << ":" << line << ")\n";
    std::abort();
}

void
fatalImpl(const std::string& msg)
{
    std::cerr << "fatal: ";
    if (t_fatal_context)
        std::cerr << *t_fatal_context << ": ";
    std::cerr << msg << "\n";
    std::exit(1);
}

}  // namespace detail

}  // namespace proteus
