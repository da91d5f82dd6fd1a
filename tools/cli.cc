#include "cli.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>

#include "trace/scenarios.hh"

namespace sbulk::cli
{

namespace
{

std::vector<std::string>
split(const std::string& list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::string
rangeText(std::uint64_t lo, std::uint64_t hi)
{
    if (hi == std::numeric_limits<std::uint64_t>::max())
        return ">= " + std::to_string(lo);
    return "in " + std::to_string(lo) + ".." + std::to_string(hi);
}

/**
 * Refuse the flags a trace header would silently override, and fill the
 * chunk size left unset. runExperiment takes the chunk size from the
 * header of every scenario and of a trace that names one, and the workload
 * seed from a trace header that names one. @p run.chunkInstrs is 0 unless
 * --chunk-instrs was given; @p from_scenario says the runs replay
 * scenarios.
 */
Error
applyHeaderHints(RunConfig& run, bool from_scenario)
{
    const bool chunk_instrs_set = run.chunkInstrs != 0;
    if (!chunk_instrs_set)
        run.chunkInstrs = RunConfig{}.chunkInstrs;
    if (chunk_instrs_set && from_scenario)
        return "--chunk-instrs cannot combine with --scenario (the "
               "scenario sets the chunk size)";
    if (run.tracePath.empty() || (!chunk_instrs_set && !run.seedOverride))
        return std::nullopt;
    atrace::TraceHeader hdr;
    if (Error err = readTraceHeader(run.tracePath, hdr))
        return err;
    if (chunk_instrs_set && hdr.chunkInstrs != 0)
        return detail::formatMsg("--chunk-instrs cannot combine with "
                                 "--trace: its header sets chunk size %u",
                                 hdr.chunkInstrs);
    if (run.seedOverride != 0 && hdr.seed != 0)
        return detail::formatMsg("--seed cannot combine with --trace: its "
                                 "header sets seed %llu",
                                 (unsigned long long)hdr.seed);
    return std::nullopt;
}

/** One row per tenant of @p r, "all" first, each rendered with @p fmt over
 *  (tenant, commits, squashes, p50, p99, squash rate, commits per
 *  Mcycle): %s, 4 x %llu, 2 x %f. */
std::vector<std::string>
tenantRows(const RunResult& r, const char* fmt)
{
    std::vector<std::string> rows;
    const auto add = [&](const std::string& tenant, std::uint64_t commits,
                         std::uint64_t squashes, const Distribution& lat) {
        const std::uint64_t attempts = commits + squashes;
        rows.push_back(detail::formatMsg(
            fmt, tenant.c_str(), (unsigned long long)commits,
            (unsigned long long)squashes,
            (unsigned long long)lat.percentile(0.50),
            (unsigned long long)lat.percentile(0.99),
            attempts ? double(squashes) / double(attempts) : 0.0,
            r.makespan ? 1e6 * double(commits) / double(r.makespan) : 0.0));
    };
    // The "all" row reads the tenants' histograms merged, so its
    // percentiles have the tenant rows' 5-cycle resolution.
    Distribution all_latency = RunResult::TenantStats{}.commitLatency;
    for (const RunResult::TenantStats& t : r.tenants)
        all_latency.merge(t.commitLatency);
    add("all", r.commits, r.chunksSquashed, all_latency);
    for (const RunResult::TenantStats& t : r.tenants)
        add(std::to_string(t.tenant), t.commits, t.squashes,
            t.commitLatency);
    return rows;
}

/** The suite column: the app's suite, the scenario's family, or "trace". */
const char*
suiteOf(const RunConfig& cfg)
{
    if (cfg.app)
        return cfg.app->suite.c_str();
    if (!cfg.scenario.empty())
        return atrace::findScenario(cfg.scenario)->family;
    return "trace";
}

/** The --figure-data columns: the six message classes, then each
 *  histogram's bucket counts joined by ';', trailing zero buckets trimmed. */
std::string
figureColumns(const RunResult& r)
{
    std::string out;
    for (MsgClass c : {MsgClass::MemRd, MsgClass::RemoteShRd,
                       MsgClass::RemoteDirtyRd, MsgClass::LargeCMessage,
                       MsgClass::SmallCMessage, MsgClass::Other}) {
        out += ',';
        out += std::to_string(r.traffic.messages(c));
    }
    for (const Distribution* d : {&r.dirsPerCommit, &r.commitLatency}) {
        const std::vector<std::uint64_t>& b = d->buckets();
        std::size_t n = b.size();
        while (n > 0 && b[n - 1] == 0)
            --n;
        out += ',';
        for (std::size_t i = 0; i < n; ++i) {
            if (i)
                out += ';';
            out += std::to_string(b[i]);
        }
    }
    return out;
}

} // namespace

Error
parseUnsigned(const std::string& v, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t& out)
{
    const char* end = v.data() + v.size();
    const auto [ptr, ec] = std::from_chars(v.data(), end, out);
    if (v.empty() || ec != std::errc() || ptr != end || out < lo || out > hi)
        return "'" + v + "' is not an integer " + rangeText(lo, hi);
    return std::nullopt;
}

Binder
set(bool& field, bool value)
{
    return [&field, value](const std::string&) -> Error {
        field = value;
        return std::nullopt;
    };
}

Binder
numbers(std::vector<std::uint32_t>& field, std::uint64_t lo,
        std::uint64_t hi)
{
    return [&field, lo, hi](const std::string& v) -> Error {
        std::vector<std::uint32_t> out;
        for (const std::string& item : split(v)) {
            std::uint64_t x = 0;
            if (Error err = parseUnsigned(item, lo, hi, x))
                return err;
            out.push_back(std::uint32_t(x));
        }
        if (out.empty())
            return "'" + v + "' lists no integer " + rangeText(lo, hi);
        field = out;
        return std::nullopt;
    };
}

Binder
real(double& field, double lo, double hi)
{
    return [&field, lo, hi](const std::string& v) -> Error {
        const char* end = v.data() + v.size();
        double x = 0;
        const auto [ptr, ec] = std::from_chars(v.data(), end, x);
        if (v.empty() || ec != std::errc() || ptr != end || !(x >= lo) ||
            !(x <= hi))
            return detail::formatMsg("'%s' is not a number in %g..%g",
                                     v.c_str(), lo, hi);
        field = x;
        return std::nullopt;
    };
}

Binder
text(std::string& field)
{
    return [&field](const std::string& v) -> Error {
        field = v;
        return std::nullopt;
    };
}

Binder
names(std::vector<std::string>& field)
{
    return [&field](const std::string& v) -> Error {
        for (std::string& item : split(v))
            field.push_back(std::move(item));
        return std::nullopt;
    };
}

Binder
protocol(ProtocolKind& field)
{
    return [&field](const std::string& v) -> Error {
        const std::optional<ProtocolKind> kind = parseProtocol(v);
        if (!kind)
            return "unknown protocol '" + v +
                   "' (want scalablebulk, tcc, seq or bulksc)";
        field = *kind;
        return std::nullopt;
    };
}

Binder
protocols(std::vector<ProtocolKind>& field)
{
    return [&field](const std::string& v) -> Error {
        std::vector<ProtocolKind> out;
        for (const std::string& item : split(v)) {
            out.emplace_back();
            if (Error err = protocol(out.back())(item))
                return err;
        }
        if (out.empty())
            return "'" + v + "' lists no protocol";
        field = out;
        return std::nullopt;
    };
}

Binder
faultPlan(fault::FaultPlan& field)
{
    return [&field](const std::string& v) -> Error {
        std::string err;
        if (!fault::FaultPlan::parse(v, field, &err))
            return "bad fault plan: " + err;
        return std::nullopt;
    };
}

Binder
traceCategories(TracePrinter::Mask& field)
{
    return [&field](const std::string& v) -> Error {
        for (const std::string& name : split(v)) {
            const TracePrinter::Mask cats = TracePrinter::maskOf(name);
            if (!cats)
                return "unknown category '" + name +
                       "' (want commit, group, inv, squash, read or all)";
            field |= cats;
        }
        return std::nullopt;
    };
}

Error
parse(const Table& table, int argc, const char* const* argv, int first,
      const std::vector<std::string*>& positionals)
{
    std::size_t filled = 0;
    bool help = false;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            if (filled == positionals.size())
                return "unexpected argument '" + arg + "'";
            *positionals[filled++] = arg;
            continue;
        }
        const std::string name = arg == "-h" ? "--help" : arg;
        const auto flag =
            std::find_if(table.begin(), table.end(),
                         [&](const Flag& f) { return name == f.name; });
        if (flag == table.end())
            return "unknown option '" + arg + "' (see --help)";
        help |= name == "--help";
        std::string value;
        if (flag->metavar) {
            if (i + 1 >= argc)
                return arg + ": missing " + flag->metavar;
            value = argv[++i];
        }
        if (Error err = flag->bind(value))
            return arg + ": " + *err;
    }
    if (filled < positionals.size() && !help)
        return "missing argument (see --help)";
    return std::nullopt;
}

std::string
usage(const char* synopsis, const Table& table, const char* preamble)
{
    constexpr std::size_t kHelpColumn = 30;
    std::string out = std::string("usage: ") + synopsis + "\n" + preamble;
    for (const Flag& f : table) {
        std::string line = std::string("  ") + f.name;
        if (f.metavar)
            line += std::string(" ") + f.metavar;
        line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
        for (const char* h = f.help; *h; ++h) {
            line += *h;
            if (*h == '\n')
                line += std::string(kHelpColumn, ' ');
        }
        out += line + "\n";
    }
    return out;
}

void
require(const Error& err)
{
    if (err)
        SBULK_FATAL("%s", err->c_str());
}

const char*
protocolFlag(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::ScalableBulk: return "scalablebulk";
      case ProtocolKind::TCC: return "tcc";
      case ProtocolKind::SEQ: return "seq";
      case ProtocolKind::BulkSC: return "bulksc";
    }
    return "?";
}

std::optional<ProtocolKind>
parseProtocol(const std::string& name)
{
    for (ProtocolKind kind : kProtocols)
        if (name == protocolFlag(kind))
            return kind;
    return std::nullopt;
}

void
printApps()
{
    for (const AppSpec& app : allApps())
        std::printf("%-14s %s\n", app.name.c_str(), app.suite.c_str());
}

void
printScenarios()
{
    for (const atrace::ScenarioSpec& s : atrace::allScenarios())
        std::printf("%-18s %-9s %s\n", s.name, s.family, s.summary);
}

void
printTenantTable(const RunResult& r)
{
    std::printf("%-8s %10s %9s %8s %8s %8s %10s\n", "tenant", "commits",
                "squashes", "p50", "p99", "sqRate", "req/Mcyc");
    for (const std::string& row :
         tenantRows(r, "%-8s %10llu %9llu %8llu %8llu %8.4f %10.2f\n"))
        std::fputs(row.c_str(), stdout);
}

std::string
csvHeader(bool faulted, bool traced, bool figure_data)
{
    std::string out =
        "app,suite,protocol,procs,seed,makespan,commits,usefulFrac,"
        "cacheMissFrac,commitFrac,squashFrac,latMean,latP90,dirs,writeDirs,"
        "bottleneck,queue,failures,squashTrue,squashAlias,recalls,messages,"
        "l1HitRate";
    if (faulted)
        out += ",faultsInjected,retransmissions,dupsDropped,watchdogFires,"
               "retryEscalations,recoveryLatMean";
    if (traced)
        out += ",tenant,tenantCommits,tenantSquashes,tenantP50,tenantP99,"
               "tenantSquashRate,tenantTput";
    if (figure_data)
        out += ",memRd,remoteShRd,remoteDirtyRd,largeC,smallC,other,"
               "dirsHist,latHist";
    return out + '\n';
}

std::string
csvRows(const RunConfig& cfg, const RunResult& r, bool figure_data)
{
    const double total = r.breakdown.total();
    std::string row = detail::formatMsg(
        "%s,%s,%s,%u,%llu,%llu,%llu,%.4f,%.4f,%.4f,%.4f,%.1f,%llu,%.2f,"
        "%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,%.4f",
        r.app.c_str(), suiteOf(cfg), protocolName(cfg.protocol), cfg.procs,
        (unsigned long long)r.seed, (unsigned long long)r.makespan,
        (unsigned long long)r.commits, r.breakdown.useful / total,
        r.breakdown.cacheMiss / total, r.breakdown.commit / total,
        r.breakdown.squash / total, r.commitLatencyMean,
        (unsigned long long)r.commitLatency.percentile(0.9),
        r.dirsPerCommitMean, r.writeDirsPerCommitMean, r.bottleneckRatio,
        r.chunkQueueLength, (unsigned long long)r.commitFailures,
        (unsigned long long)r.squashesTrueConflict,
        (unsigned long long)r.squashesAliasing,
        (unsigned long long)r.commitRecalls,
        (unsigned long long)r.traffic.totalMessages(),
        r.loads ? double(r.l1Hits) / double(r.loads) : 0.0);
    // Degradation columns exist only under --faults, so the default CSV
    // stays byte-identical to the pre-fault sweep.
    if (cfg.faults.enabled()) {
        row += detail::formatMsg(
            ",%llu,%llu,%llu,%llu,%llu,%.1f",
            (unsigned long long)r.faultsInjected,
            (unsigned long long)r.retransmissions,
            (unsigned long long)r.dupsDropped,
            (unsigned long long)r.watchdogFires,
            (unsigned long long)r.retryEscalations, r.recoveryLatencyMean);
    }
    // --figure-data columns come last, after the fault and tenant ones.
    std::string tail = figure_data ? figureColumns(r) : "";
    tail += '\n';
    if (!r.traced)
        return row + tail;
    // Per-tenant long format: every tenant (plus an "all" aggregate)
    // repeats the run columns, so each line is self-describing.
    std::string out;
    for (const std::string& tenant :
         tenantRows(r, ",%s,%llu,%llu,%llu,%llu,%.4f,%.4f"))
        out += row + tenant + tail;
    return out;
}

const char* const kProtocolsHelp =
    "scalablebulk | tcc | seq | bulksc (default:\nall four)";
const char* const kJobsHelp =
    "concurrent runs (0 = one per core); output\nis byte-identical at "
    "any --jobs";
const char* const kTraceCategoriesHelp =
    "trace categories to stderr\n(commit,group,inv,squash,read or all)";

namespace
{

void
append(Table& table, Table more)
{
    table.insert(table.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
}

/** The protocol and chunk knobs sbulk-sim and sbulk-sweep share. */
Table
knobFlags(RunConfig& r)
{
    return {
        {"--chunk-instrs", "N", "chunk size (default 2000)",
         number(r.chunkInstrs, 1)},
        {"--sig-bits", "N", "signature size in bits (default 2048)",
         number(r.sig.totalBits, 1, 65536)},
        {"--no-oci", nullptr, "disable optimistic commit initiation",
         set(r.proto.oci, false)},
        {"--starvation-max", "N", "reservation threshold (default 24)",
         number(r.proto.starvationMax, 0)},
        {"--rotation", "N", "leader-rotation interval, cycles",
         number(r.proto.leaderRotationInterval, 0)},
        {"--faults", "PLAN", "inject transport faults (ROBUSTNESS.md)",
         faultPlan(r.faults)},
    };
}

} // namespace

Error
SimOptions::resolve()
{
    const bool traced = !run.tracePath.empty() || !run.scenario.empty();
    if (!run.tracePath.empty() && !run.scenario.empty())
        return "--trace and --scenario are mutually exclusive";
    if (traced && (custom || !run.recordPath.empty()))
        return "--trace/--scenario cannot combine with --custom or --record";
    if (!traced) {
        run.app = custom ? &customApp : findApp(app);
        if (!run.app)
            return "unknown application '" + app + "' (see --list)";
        if (run.totalChunks == 0)
            run.totalChunks = 1280;
    }
    if (run.procs == 0 && !run.tracePath.empty()) {
        atrace::TraceHeader hdr;
        if (Error err = readTraceHeader(run.tracePath, hdr))
            return err;
        run.procs = hdr.numCores;
    } else if (run.procs == 0) {
        run.procs = 64;
    }
    if (run.seedOverride != 0)
        run.scenarioParams.seed = run.seedOverride;
    if (Error err = applyHeaderHints(run, !run.scenario.empty()))
        return err;
    return run.validate();
}

Table
simFlags(SimOptions& o)
{
    RunConfig& r = o.run;
    SyntheticParams& c = o.customApp.params;
    Table t = {
        {"--help", nullptr, "print this help (also -h)", set(o.help)},
        {"--list", nullptr, "list the 18 application models",
         set(o.listApps)},
        {"--list-apps", nullptr, "same as --list", set(o.listApps)},
        {"--list-scenarios", nullptr, "list the serving scenarios",
         set(o.listScenarios)},
        {"--app", "NAME", "application model (default Radix)", text(o.app)},
        {"--custom", nullptr, "custom synthetic workload (custom: knobs)",
         set(o.custom)},
        {"--trace", "FILE", "replay an access trace (WORKLOADS.md)",
         text(r.tracePath)},
        {"--scenario", "NAME", "generate + replay a serving scenario",
         text(r.scenario)},
        {"--tenants", "N", "scenario tenants, 1..4096 (default 4)",
         number(r.scenarioParams.tenants, 1, 4096)},
        {"--requests", "N", "scenario requests (default 512)",
         number(r.scenarioParams.requests, 1)},
        {"--record", "FILE", "capture the op streams to a trace",
         text(r.recordPath)},
        {"--procs", "N", "processors, 1..4096 (default 64, or the\n"
                         "trace's core count)",
         number(r.procs, 1, 4096)},
        {"--shards", "N", "event-kernel shards, 1..procs (default 1 =\n"
                          "serial; stats identical for any count >= 2)",
         number(r.shards, 1, 4096)},
        {"--protocol", "P", "scalablebulk | tcc | seq | bulksc",
         protocol(r.protocol)},
        {"--chunks", "N", "total chunks of work (default 1280)",
         number(r.totalChunks, 1)},
        {"--seed", "N", "workload RNG seed override (0 = none)",
         number(r.seedOverride, 0)},
    };
    append(t, knobFlags(r));
    append(t, {
        {"--retry-delay", "N", "commit retry backoff base, cycles",
         number(r.proto.commitRetryDelay, 0)},
        {"--csv", nullptr, "one CSV row instead of the report", set(o.csv)},
        {"--debug-trace", "CATS", kTraceCategoriesHelp,
         traceCategories(o.debugTrace)},
        {"--histogram", nullptr, "also print the commit-latency histogram",
         set(o.histogram)},
        {"--stats", nullptr, "dump every component's statistics",
         set(o.fullStats)},
        {"--mem-fraction", "F", "custom: memory ops per instruction",
         real(c.memFraction, 0, 1)},
        {"--write-fraction", "F", "custom: private write-run share",
         real(c.writeFraction, 0, 1)},
        {"--shared-fraction", "F", "custom: shared-run share",
         real(c.sharedFraction, 0, 1)},
        {"--shared-write-fraction", "F", "custom: shared write-run share",
         real(c.sharedWriteFraction, 0, 1)},
        {"--hot-fraction", "F", "custom: hot-region run share",
         real(c.hotFraction, 0, 1)},
        {"--hot-lines", "N", "custom: hot-region lines",
         number(c.hotLines, 0, 1u << 20)},
        {"--private-pages", "N", "custom: private pages in total",
         number(c.privatePages, 1, 1u << 20)},
        {"--shared-pages", "N", "custom: shared pages",
         number(c.sharedPages, 1, 1u << 20)},
        {"--temporal-reuse", "F", "custom: revisit probability",
         real(c.temporalReuse, 0, 1)},
    });
    return t;
}

Error
SweepOptions::resolve(std::vector<RunConfig>& out) const
{
    if (!scenarios.empty() && !base.tracePath.empty())
        return "--scenario and --trace are mutually exclusive";
    if (!apps.empty() && traced())
        return "--apps cannot combine with --scenario or --trace";
    RunConfig shared = base;
    std::vector<std::uint32_t> counts = procs;
    if (counts.empty())
        counts = {32, 64};
    if (traced()) {
        // totalChunks 0 defers to the trace's own work budget.
        if (base.seedOverride != 0)
            shared.scenarioParams.seed = base.seedOverride;
    } else if (shared.totalChunks == 0) {
        shared.totalChunks = 1280;
    }
    if (procs.empty() && !base.tracePath.empty()) {
        atrace::TraceHeader hdr;
        if (Error err = readTraceHeader(base.tracePath, hdr))
            return err;
        counts = {hdr.numCores};
    }
    if (Error err = applyHeaderHints(shared, !scenarios.empty()))
        return err;

    // The workload axis; protocols and processor counts vary inside it.
    std::vector<RunConfig> workloads;
    for (const std::string& name : scenarios) {
        const atrace::ScenarioSpec* spec = atrace::findScenario(name);
        if (!spec)
            return "unknown scenario '" + name + "' (see --list-scenarios)";
        workloads.push_back(shared);
        workloads.back().scenario = spec->name;
    }
    if (!base.tracePath.empty())
        workloads.push_back(shared);
    for (const std::string& name : apps) {
        const AppSpec* app = findApp(name);
        if (!app)
            return "unknown app '" + name + "' (see --list-apps)";
        workloads.push_back(shared);
        workloads.back().app = app;
    }
    if (workloads.empty()) {
        for (const AppSpec& app : allApps()) {
            workloads.push_back(shared);
            workloads.back().app = &app;
        }
    }

    out.clear();
    for (const RunConfig& w : workloads) {
        for (ProtocolKind proto : protocols) {
            for (std::uint32_t p : counts) {
                out.push_back(w);
                out.back().protocol = proto;
                out.back().procs = p;
                if (Error err = out.back().validate())
                    return err;
            }
        }
    }
    return std::nullopt;
}

Table
sweepFlags(SweepOptions& o)
{
    RunConfig& b = o.base;
    Table t = {
        {"--help", nullptr, "print this help (also -h)", set(o.help)},
        {"--apps", "A,B", "application models (default: all 18)",
         names(o.apps)},
        {"--protocols", "P,Q", kProtocolsHelp, protocols(o.protocols)},
        {"--procs", "N,M", "processor counts, each 1..4096 (default\n"
                           "32,64, or the trace's core count)",
         numbers(o.procs, 1, 4096)},
        {"--chunks", "N", "total chunks per run (default 1280, or\n"
                          "the trace's budget)",
         number(b.totalChunks, 1)},
        {"--seed", "N", "workload RNG seed override (0 = none)",
         number(b.seedOverride, 0)},
    };
    append(t, knobFlags(b));
    append(t, {
        {"--jobs", "N", kJobsHelp, number(o.jobs, 0, 4096)},
        {"--shards", "N", "event-kernel shards per run, 1..procs",
         number(b.shards, 1, 4096)},
        {"--scenario", "S,T", "serving scenarios instead of apps",
         names(o.scenarios)},
        {"--scenarios", "S,T", "same as --scenario", names(o.scenarios)},
        {"--trace", "FILE", "replay a trace instead of apps",
         text(b.tracePath)},
        {"--tenants", "N", "scenario tenants, 1..4096 (default 4)",
         number(b.scenarioParams.tenants, 1, 4096)},
        {"--requests", "N", "scenario requests (default 512)",
         number(b.scenarioParams.requests, 1)},
        {"--list-apps", nullptr, "list the 18 application models",
         set(o.listApps)},
        {"--list-scenarios", nullptr, "list the serving scenarios",
         set(o.listScenarios)},
        {"--figure-data", nullptr, "append per-class message counts and the\n"
                                   "dirs/latency histograms (dirsHist,\n"
                                   "latHist) to every row",
         set(o.figureData)},
    });
    return t;
}

Table
checkFlags(CheckOptions& o)
{
    check::CheckConfig& b = o.base;
    const Binder sabotage = [&b](const std::string& v) -> Error {
        if (v == "admit-conflicting")
            b.sbBreak = SbBreakMode::AdmitConflicting;
        else if (v == "fail-both")
            b.sbBreak = SbBreakMode::FailBothOnCollision;
        else
            return "unknown break mode '" + v + "'";
        return std::nullopt;
    };
    return {
        {"--help", nullptr, "print this help (also -h)", set(o.help)},
        {"--protocols", "P,Q", kProtocolsHelp, protocols(o.protocols)},
        {"--seeds", "N", "seeds to sweep per protocol (default 500)",
         number(o.seeds, 1)},
        {"--seed-base", "N", "first seed (default 1)", number(o.seedBase, 0)},
        {"--procs", "N", "cores = directories, 1..4096 (default 2)",
         number(b.procs, 1, 4096)},
        {"--jitter", "N", "max per-message delivery jitter (default 8)",
         number(b.maxJitter, 0)},
        {"--chunks", "N", "chunks per core (default 6)",
         number(b.chunksPerCore, 1)},
        {"--chunk-instrs", "N", "chunk size (default 80)",
         number(b.chunkInstrs, 1)},
        {"--tick-limit", "N", "livelock bound per schedule",
         number(b.tickLimit, 1)},
        {"--break", "MODE", "sabotage the protocol to exercise the\n"
                            "oracles: admit-conflicting | fail-both",
         sabotage},
        {"--faults", "PLAN", "inject transport faults (ROBUSTNESS.md),\n"
                             "e.g. \"seed=7, drop=0.01, dup=0.01\"; arms\n"
                             "recovery and the liveness oracle",
         faultPlan(b.faults)},
        {"--expect-violations", nullptr, "exit 0 iff violations WERE found",
         set(o.expectViolations)},
        {"--keep-going", nullptr, "don't stop a protocol at its first fail",
         set(o.keepGoing)},
        {"--jobs", "N", kJobsHelp, number(o.jobs, 0, 4096)},
        {"--debug-trace", "CATS", kTraceCategoriesHelp,
         traceCategories(b.debugTrace)},
        {"--replay-seed", "N", "deterministically re-run one seed",
         number(o.replaySeed, 1)},
        {"--replay-prefix", "N", "... honoring only the first N schedule\n"
                                 "decisions (default: all)",
         number(o.replayPrefix, 0)},
    };
}

Table
traceFlags(TraceOptions& o)
{
    return {
        {"--help", nullptr, "print this help (also -h)", set(o.help)},
        {"-o", "FILE", "gen, convert: output file", text(o.output)},
        {"--output", "FILE", "same as -o", text(o.output)},
        {"--procs", "N", "gen: cores, 1..4096 (default 8)",
         number(o.procs, 1, 4096)},
        {"--tenants", "N", "gen: tenants, 1..4096 (default 4)",
         number(o.scen.tenants, 1, 4096)},
        {"--requests", "N", "gen: requests (default 512)",
         number(o.scen.requests, 1)},
        {"--seed", "N", "gen: workload seed (0 = default)",
         number(o.seed, 0)},
        {"--text", nullptr, "gen, convert: write the text form",
         set(o.text)},
        {"--binary", nullptr, "convert: write the binary form (default)",
         set(o.text, false)},
        {"--limit", "N", "cat: stop after N records (0 = all)",
         number(o.limit, 0)},
    };
}

} // namespace sbulk::cli
