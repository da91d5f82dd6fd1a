/**
 * @file
 * The command-line layer shared by sbulk-sim, sbulk-sweep, sbulk-check and
 * sbulk-trace.
 *
 * Each tool declares its flags once, as a table of Flag entries: a name, a
 * metavar, a help line and a typed binder that parses the value straight
 * into an options field. parse() walks argv against the table and returns
 * the first error instead of exiting, so tests drive it in-process; usage()
 * renders --help from the same table. Numbers parse strictly (the whole
 * token, in range), so a typo is an error, never a silent zero.
 *
 * The option structs and their tables live here, not in the tools, so the
 * tests can parse a tool's command line without running the tool. Tools
 * turn every error into SBULK_FATAL: one `fatal:` line and exit status 2.
 */

#ifndef SBULK_TOOLS_CLI_HH
#define SBULK_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/replay.hh"
#include "system/experiment.hh"
#include "workload/synthetic.hh"

namespace sbulk::cli
{

using Error = std::optional<std::string>;

/** Parse a flag's value text into its field; the reason on bad input. */
using Binder = std::function<Error(const std::string& value)>;

/** One flag. A null metavar marks a switch that takes no value. */
struct Flag
{
    const char* name;
    const char* metavar;
    /** Help text; '\n' starts an indented continuation line. */
    const char* help;
    Binder bind;
};

using Table = std::vector<Flag>;

/** The four protocols, in the tools' default order. */
inline const std::vector<ProtocolKind> kProtocols = {
    ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
    ProtocolKind::BulkSC};

/// @name Binders
/// @{
/** Switch: sets @p field to @p value. */
Binder set(bool& field, bool value = true);
/** The whole of @p v as an unsigned integer in [lo, hi]. */
Error parseUnsigned(const std::string& v, std::uint64_t lo, std::uint64_t hi,
                    std::uint64_t& out);
/** Unsigned integer in [lo, hi]; hi defaults to the field's maximum. */
template <class T>
Binder
number(T& field, std::uint64_t lo,
       std::uint64_t hi = std::numeric_limits<T>::max())
{
    return [&field, lo, hi](const std::string& v) -> Error {
        std::uint64_t x = 0;
        if (Error err = parseUnsigned(v, lo, hi, x))
            return err;
        field = T(x);
        return std::nullopt;
    };
}
/** Comma list of unsigned integers, each in [lo, hi]. */
Binder numbers(std::vector<std::uint32_t>& field, std::uint64_t lo,
               std::uint64_t hi);
/** Real number in [lo, hi]. */
Binder real(double& field, double lo, double hi);
Binder text(std::string& field);
/** Comma list of names, appended to @p field. */
Binder names(std::vector<std::string>& field);
Binder protocol(ProtocolKind& field);
/** Comma list of protocols. */
Binder protocols(std::vector<ProtocolKind>& field);
/** A FaultPlan in the ROBUSTNESS.md grammar. */
Binder faultPlan(fault::FaultPlan& field);
/** Comma list of debug-trace categories (TracePrinter), added to
 *  @p field. */
Binder traceCategories(TracePrinter::Mask& field);
/// @}

/**
 * Bind argv[first..argc) against @p table. Arguments not starting with '-'
 * fill @p positionals in order; "-h" means "--help". Returns the first
 * error (unknown flag, missing value, bad value, wrong positional count)
 * or nullopt. Never exits.
 */
Error parse(const Table& table, int argc, const char* const* argv,
            int first = 1, const std::vector<std::string*>& positionals = {});

/** The --help text: @p synopsis, then one block per table entry. */
std::string usage(const char* synopsis, const Table& table,
                  const char* preamble = "");

/** Exit through SBULK_FATAL (status 2) when @p err holds an error. */
void require(const Error& err);

/** Protocol names as the flags spell them. */
std::optional<ProtocolKind> parseProtocol(const std::string& name);
const char* protocolFlag(ProtocolKind kind);

/** The 18 application models / the serving-scenario library, one a line. */
void printApps();
void printScenarios();

/** The sim report's per-tenant table: "all", then each tenant. */
void printTenantTable(const RunResult& r);

/// @name The one CSV schema of sbulk-sweep and sbulk-sim --csv
/// @{
/** The header line: the run columns, then the fault columns (@p faulted),
 *  the per-tenant ones (@p traced) and the --figure-data ones. */
std::string csvHeader(bool faulted, bool traced, bool figure_data);
/** The rows of one run, each ending in '\n': one row, or for a trace or
 *  scenario run one per tenant row ("all" first), each repeating the run
 *  columns. @p cfg supplies the suite, protocol, procs and fault columns. */
std::string csvRows(const RunConfig& cfg, const RunResult& r,
                    bool figure_data);
/// @}

/** Options structs stay where they were built: their tables' binders (and
 *  SimOptions::run.app) point into them. */
struct Pinned
{
    Pinned() = default;
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
};

/** sbulk-sim. `run.procs`, `run.totalChunks` and `run.chunkInstrs` stay 0
 *  until resolve() (0 = the flag was not given). */
struct SimOptions : Pinned
{
    bool help = false;
    bool listApps = false;
    bool listScenarios = false;
    std::string app = "Radix";
    bool custom = false;
    bool csv = false;
    bool histogram = false;
    bool fullStats = false;
    /** --debug-trace categories (0 = no printer attached). */
    TracePrinter::Mask debugTrace = 0;
    AppSpec customApp{"custom", "user", SyntheticParams{}};
    RunConfig run{.procs = 0, .totalChunks = 0, .chunkInstrs = 0};

    /** Apply defaults (from the trace header, if any), look up the app
     *  and check the run. */
    Error resolve();
};
Table simFlags(SimOptions& o);

/** sbulk-sweep: the cross-product of its lists. */
struct SweepOptions : Pinned
{
    bool help = false;
    bool listApps = false;
    bool listScenarios = false;
    std::vector<std::string> apps;
    std::vector<std::string> scenarios;
    std::vector<ProtocolKind> protocols = kProtocols;
    /** Empty until set: {32, 64}, or the trace's core count. */
    std::vector<std::uint32_t> procs;
    unsigned jobs = 1;
    /** Append the per-class message counts and the dirs/latency
     *  histograms the figure tables need (scripts/figures.py). */
    bool figureData = false;
    /** Fields every run shares; totalChunks and chunkInstrs 0 = unset. */
    RunConfig base{.totalChunks = 0, .chunkInstrs = 0};

    /** The matrix in output order, every run checked by
     *  RunConfig::validate(). */
    Error resolve(std::vector<RunConfig>& out) const;
    bool
    traced() const
    {
        return !scenarios.empty() || !base.tracePath.empty();
    }
};
Table sweepFlags(SweepOptions& o);

/** sbulk-check. */
struct CheckOptions : Pinned
{
    bool help = false;
    std::vector<ProtocolKind> protocols = kProtocols;
    std::uint64_t seeds = 500;
    std::uint64_t seedBase = 1;
    check::CheckConfig base{};
    /** Replay one seed instead of sweeping (0 = sweep). */
    std::uint64_t replaySeed = 0;
    /** Replay decision-prefix length (SIZE_MAX = the full trace). */
    std::size_t replayPrefix = std::size_t(-1);
    bool expectViolations = false;
    bool keepGoing = false;
    /** Concurrent schedule explorations (each owns a private System). */
    unsigned jobs = 1;
};
Table checkFlags(CheckOptions& o);

/** sbulk-trace's file tools; each subcommand uses the subset it
 *  documents. */
struct TraceOptions : Pinned
{
    bool help = false;
    std::string input;
    std::string output;
    /** gen: 0 = the scenario's default core count. */
    std::uint32_t procs = 0;
    std::uint64_t seed = 0;
    atrace::ScenarioParams scen{};
    bool text = false;
    std::uint64_t limit = 0;
};
Table traceFlags(TraceOptions& o);

} // namespace sbulk::cli

#endif // SBULK_TOOLS_CLI_HH
