/**
 * @file
 * Error and status reporting, following the gem5 split between panic()
 * (internal invariant broken — abort) and fatal() (user/configuration error —
 * clean exit), plus warn()/inform() status messages.
 */

#ifndef SBULK_SIM_LOGGING_HH
#define SBULK_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace sbulk
{

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet, Normal, Verbose, Debug };

/** Global log level; benches set Quiet, debugging sets Debug. */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail
{
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);
[[noreturn]] void fatalImpl(const std::string& msg);
void warnImpl(const std::string& msg);
void informImpl(const std::string& msg);
std::string formatMsg(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

} // namespace sbulk

/** Internal invariant broken: a simulator bug. Aborts. */
#define SBULK_PANIC(...) \
    ::sbulk::detail::panicImpl(__FILE__, __LINE__, \
                               ::sbulk::detail::formatMsg(__VA_ARGS__))

/**
 * The simulation cannot continue due to a user error (a bad flag, config
 * or input file). Prints one `fatal:` line, without a source location or
 * backtrace, and exits with status 2.
 */
#define SBULK_FATAL(...) \
    ::sbulk::detail::fatalImpl(::sbulk::detail::formatMsg(__VA_ARGS__))

/** Something may be modeled imperfectly; execution continues. */
#define SBULK_WARN(...) \
    ::sbulk::detail::warnImpl(::sbulk::detail::formatMsg(__VA_ARGS__))

/** Normal operating message. */
#define SBULK_INFORM(...) \
    ::sbulk::detail::informImpl(::sbulk::detail::formatMsg(__VA_ARGS__))

/** Cheap always-on assertion that panics with context on failure. */
#define SBULK_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::sbulk::detail::panicImpl(__FILE__, __LINE__, \
                std::string("assertion failed: ") + #cond \
                __VA_OPT__(+ " — " + ::sbulk::detail::formatMsg(__VA_ARGS__))); \
        } \
    } while (0)

#endif // SBULK_SIM_LOGGING_HH
