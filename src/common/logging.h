/**
 * @file
 * Minimal logging and error-termination helpers.
 *
 * Follows the gem5 convention: panic() flags an internal invariant
 * violation (a bug in this library) and aborts; fatal() flags a user
 * error (bad configuration) and exits cleanly with a non-zero status.
 * inform()/warn() emit status messages and never stop execution.
 */

#ifndef PROTEUS_COMMON_LOGGING_H_
#define PROTEUS_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace proteus {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent, Warn, Info, Debug };

/** Set the global log verbosity. Default is Warn. */
void setLogLevel(LogLevel level);

/** @return the current global log verbosity. */
LogLevel logLevel();

/**
 * Register a clock for log messages: every inform/warn/debug line is
 * prefixed with "@<seconds>s" of simulated time so output is
 * attributable to a point in the run. @p fn is called with @p owner at
 * each emission; a second registration displaces the first (the most
 * recently constructed simulator wins).
 */
void setLogTimeSource(const void* owner, double (*fn)(const void*));

/**
 * Unregister @p owner's clock. A no-op unless @p owner is the current
 * source, so destroying an old simulator never silences a newer one.
 */
void clearLogTimeSource(const void* owner);

/**
 * While alive, names what is being loaded in every fatal() message
 * raised on the constructing thread: "fatal: <what>: <message>". A
 * loader that cannot know where its input came from (a sweep entry's
 * merged config, say) stays as it is; its caller says where.
 */
class FatalContext
{
  public:
    explicit FatalContext(std::string what);
    ~FatalContext();
    FatalContext(const FatalContext&) = delete;
    FatalContext& operator=(const FatalContext&) = delete;

  private:
    std::string what_;
    const std::string* outer_;
};

namespace detail {

void emit(LogLevel level, const std::string& tag, const std::string& msg);

[[noreturn]] void panicImpl(const char* file, int line,
                            const std::string& msg);
[[noreturn]] void fatalImpl(const std::string& msg);

template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

}  // namespace detail

/** Emit an informational message (shown at Info verbosity and above). */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::emit(LogLevel::Info, "info",
                 detail::concat(std::forward<Args>(args)...));
}

/** Emit a warning (shown at Warn verbosity and above). */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::emit(LogLevel::Warn, "warn",
                 detail::concat(std::forward<Args>(args)...));
}

/** Emit a debug message (shown only at Debug verbosity). */
template <typename... Args>
void
debugLog(Args&&... args)
{
    detail::emit(LogLevel::Debug, "debug",
                 detail::concat(std::forward<Args>(args)...));
}

/** Abort: something happened that should never happen (library bug). */
#define PROTEUS_PANIC(...)                                                  \
    ::proteus::detail::panicImpl(__FILE__, __LINE__,                        \
                                 ::proteus::detail::concat(__VA_ARGS__))

/** Exit with an error: the user supplied an invalid configuration. */
#define PROTEUS_FATAL(...)                                                  \
    ::proteus::detail::fatalImpl(::proteus::detail::concat(__VA_ARGS__))

/** Check an internal invariant; panics with the message when violated. */
#define PROTEUS_ASSERT(cond, ...)                                           \
    do {                                                                    \
        if (!(cond)) {                                                      \
            PROTEUS_PANIC("assertion failed: ", #cond, " ",                 \
                          ::proteus::detail::concat(__VA_ARGS__));          \
        }                                                                   \
    } while (false)

}  // namespace proteus

#endif  // PROTEUS_COMMON_LOGGING_H_
