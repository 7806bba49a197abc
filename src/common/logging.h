/**
 * @file
 * Logging and error-reporting primitives.
 *
 * Semantics follow the gem5 convention:
 *  - inform(): status messages with no connotation of incorrect behavior.
 *  - warn():   something may not be handled ideally but execution continues.
 *  - fatal():  the run cannot continue due to a *user* error (bad config,
 *              invalid arguments); exits with code 1.
 *  - panic():  an internal invariant was violated (a bug in this library);
 *              aborts so a core dump / debugger can capture state.
 *  - fail_config(): an install-time configuration reject (a program or
 *              layout a pipeline cannot legally host); throws ConfigError
 *              so embedders — the controller, the verifier sweep, tests —
 *              can catch it and report or recover instead of dying.
 */
#ifndef ASK_COMMON_LOGGING_H
#define ASK_COMMON_LOGGING_H

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ask {

namespace detail {

/** Stream a pack of arguments into a string. */
template <typename... Args>
std::string
concat_args(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Emit one log line with a severity tag. */
void log_line(const char* tag, const std::string& msg);

}  // namespace detail

/** Print an informational status message. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::log_line("info", detail::concat_args(std::forward<Args>(args)...));
}

/** Print a warning; execution continues. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::log_line("warn", detail::concat_args(std::forward<Args>(args)...));
}

/**
 * Terminate the process due to a user-facing error (bad configuration or
 * arguments). Exits with status 1; never returns.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::log_line("fatal", detail::concat_args(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Terminate the process because an internal invariant was violated.
 * Aborts; never returns.
 */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::log_line("panic", detail::concat_args(std::forward<Args>(args)...));
    std::abort();
}

/**
 * An install-time configuration reject: the requested program, layout,
 * or tunable cannot be hosted by the target pipeline. Catchable — a
 * rejected install must leave the process alive (the verifier sweep
 * and the controller rely on comparing/reporting rejects).
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Reject an install-time configuration: throws ConfigError. Unlike
 * fatal(), the caller survives; unlike panic(), this is a *user* error
 * (over-provisioned SRAM, illegal access plan, bad tunables), not a
 * library bug.
 */
template <typename... Args>
[[noreturn]] void
fail_config(Args&&... args)
{
    throw ConfigError(detail::concat_args(std::forward<Args>(args)...));
}

/**
 * A runtime state reject: an operation that is illegal against the
 * *current* state of a live component (releasing an unknown task,
 * starting a duplicate receive, replaying a corrupt WAL). Catchable —
 * a simulated host crash must never take down the whole process; the
 * recovery paths catch this, fail the affected task with a typed
 * TaskStatus, and keep running.
 */
class StateError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Reject an operation against current runtime state: throws StateError.
 * The runtime sibling of fail_config() — same catchability contract,
 * but for faults that only exist once the system is running (crash
 * artifacts, stale task handles), not for install-time configuration.
 */
template <typename... Args>
[[noreturn]] void
fail_state(Args&&... args)
{
    throw StateError(detail::concat_args(std::forward<Args>(args)...));
}

/** panic() when a condition that must hold does not. */
#define ASK_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::ask::panic("assertion failed: ", #cond, " at ", __FILE__,     \
                         ":", __LINE__, " ", ##__VA_ARGS__);                \
        }                                                                   \
    } while (0)

}  // namespace ask

#endif  // ASK_COMMON_LOGGING_H
