#include "sim/logging.hh"

#include <execinfo.h>

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace sbulk
{

namespace
{
LogLevel gLogLevel = LogLevel::Normal;
} // namespace

LogLevel
logLevel()
{
    return gLogLevel;
}

void
setLogLevel(LogLevel level)
{
    gLogLevel = level;
}

namespace detail
{

std::string
formatMsg(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(std::size_t(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), std::size_t(n));
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    void* frames[32];
    int n = ::backtrace(frames, 32);
    ::backtrace_symbols_fd(frames, n, 2);
    std::abort();
}

void
fatalImpl(const std::string& msg)
{
    // A --jobs worker or shard thread may get here while other threads
    // still run: the first caller prints the one line, later ones wait for
    // the exit, and std::_Exit skips the static destructors std::exit
    // would start under the running threads.
    static std::mutex first;
    first.lock();
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::fflush(nullptr);
    std::_Exit(2);
}

void
warnImpl(const std::string& msg)
{
    if (gLogLevel >= LogLevel::Normal)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string& msg)
{
    if (gLogLevel >= LogLevel::Verbose)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace sbulk
