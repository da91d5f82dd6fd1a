/**
 * @file
 * sbulk-trace: the access-trace toolbox (see WORKLOADS.md).
 *
 *   sbulk-trace gen kv-zipf --procs 8 --tenants 4 -o kv.sbt
 *   sbulk-trace record --app Radix --procs 8 --chunks 640 -o radix.sbt
 *   sbulk-trace replay kv.sbt --protocol scalablebulk [--csv]
 *   sbulk-trace cat kv.sbt [--limit N]        # text form to stdout
 *   sbulk-trace convert kv.sbt -o kv.txt --text
 *   sbulk-trace validate kv.sbt               # strict scan + summary
 *   sbulk-trace list                          # the scenario library
 *
 * `replay` runs the trace through the simulator exactly as `sbulk-sim
 * --trace` does (same engine), reporting overall and per-tenant serving
 * metrics; `record` captures a synthetic run so the pair round-trips:
 * record -> replay reproduces the run's statistics.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "trace/io.hh"
#include "trace/scenarios.hh"

namespace
{

using namespace sbulk;
using cli::TraceOptions;

std::ifstream
openInput(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SBULK_FATAL("cannot open '%s'", path.c_str());
    return in;
}

std::ofstream
openOutput(const std::string& path)
{
    if (path.empty())
        SBULK_FATAL("missing -o FILE (see --help)");
    std::ofstream out(path, std::ios::binary);
    if (!out)
        SBULK_FATAL("cannot open '%s'", path.c_str());
    return out;
}

int
cmdList(TraceOptions&)
{
    cli::printScenarios();
    return 0;
}

int
cmdGen(TraceOptions& opt)
{
    const atrace::ScenarioSpec* spec = atrace::findScenario(opt.input);
    if (!spec)
        SBULK_FATAL("unknown scenario '%s' (sbulk-trace list)",
                    opt.input.c_str());
    if (opt.procs != 0)
        opt.scen.cores = opt.procs;
    if (opt.seed != 0)
        opt.scen.seed = opt.seed;
    std::ofstream out = openOutput(opt.output);
    std::string err;
    if (!atrace::generateScenario(*spec, opt.scen, out, opt.text, &err))
        SBULK_FATAL("%s: %s", spec->name, err.c_str());
    return 0;
}

int
cmdRecord(TraceOptions& opt)
{
    if (opt.output.empty())
        SBULK_FATAL("missing -o FILE (see --help)");
    RunConfig cfg;
    cfg.app = findApp(opt.app);
    if (!cfg.app)
        SBULK_FATAL("unknown app '%s'", opt.app.c_str());
    cfg.procs = opt.procs != 0 ? opt.procs : 8;
    cfg.totalChunks = opt.chunks != 0 ? opt.chunks : 1280;
    cfg.protocol = opt.protocol;
    cfg.seedOverride = opt.seed;
    cfg.recordPath = opt.output;
    cli::require(cfg.validate());
    const RunResult r = runExperiment(cfg);
    std::fprintf(stderr, "recorded %s x %u procs -> %s (%llu commits)\n",
                 r.app.c_str(), r.procs, opt.output.c_str(),
                 (unsigned long long)r.commits);
    return 0;
}

int
cmdReplay(TraceOptions& opt)
{
    RunConfig cfg;
    cfg.tracePath = opt.input;
    cfg.procs = opt.procs;
    if (cfg.procs == 0) {
        // The trace dictates the machine size unless --procs was given.
        atrace::TraceHeader hdr;
        cli::require(readTraceHeader(opt.input, hdr));
        cfg.procs = hdr.numCores;
    }
    cfg.protocol = opt.protocol;
    cfg.totalChunks = opt.chunks;
    cfg.faults = opt.faults;
    cli::require(cfg.validate());
    const RunResult r = runExperiment(cfg);

    if (opt.csv) {
        std::printf("app,protocol,procs,seed,makespan,commits,squashes,"
                    "tenant,tenantCommits,tenantSquashes,tenantP50,"
                    "tenantP99,tenantSquashRate,tenantTput\n");
        for (const std::string& tenant : cli::tenantRows(r, cli::kTenantCsv))
            std::printf("%s,%s,%u,%llu,%llu,%llu,%llu%s\n", r.app.c_str(),
                        protocolName(r.protocol), r.procs,
                        (unsigned long long)r.seed,
                        (unsigned long long)r.makespan,
                        (unsigned long long)r.commits,
                        (unsigned long long)r.chunksSquashed,
                        tenant.c_str());
        return 0;
    }

    std::printf("trace            %s\n", opt.input.c_str());
    std::printf("protocol         %s\n", protocolName(r.protocol));
    std::printf("processors       %u\n", r.procs);
    std::printf("simulated time   %llu cycles\n",
                (unsigned long long)r.makespan);
    std::printf("chunks committed %llu (%llu squashed)\n",
                (unsigned long long)r.commits,
                (unsigned long long)r.chunksSquashed);
    std::printf("commit latency   mean %.1f p90 %llu\n",
                r.commitLatencyMean,
                (unsigned long long)r.commitLatency.percentile(0.90));
    if (r.faultsInjected != 0) {
        std::printf("faults injected  %llu (%llu retransmissions, %llu "
                    "watchdog fires)\n",
                    (unsigned long long)r.faultsInjected,
                    (unsigned long long)r.retransmissions,
                    (unsigned long long)r.watchdogFires);
    }
    std::printf("\n");
    cli::printTenantTable(r, /*with_all=*/true);
    return 0;
}

int
cmdCat(TraceOptions& opt)
{
    std::ifstream in = openInput(opt.input);
    atrace::TraceReader reader;
    std::string err;
    if (!reader.open(in, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    std::fputs(atrace::headerToText(reader.header()).c_str(), stdout);
    atrace::TraceRecord rec;
    std::uint64_t n = 0;
    while (reader.next(rec, &err)) {
        std::printf("%s\n", atrace::recordToText(rec).c_str());
        if (opt.limit != 0 && ++n >= opt.limit)
            return 0;
    }
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    return 0;
}

int
cmdConvert(TraceOptions& opt)
{
    std::ifstream in = openInput(opt.input);
    std::ofstream out = openOutput(opt.output);
    std::string err;
    if (!atrace::convertTrace(in, out, opt.text, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    return 0;
}

int
cmdValidate(TraceOptions& opt)
{
    std::ifstream in = openInput(opt.input);
    atrace::TraceSummary sum;
    std::string err;
    if (!atrace::scanTrace(in, sum, &err)) {
        std::fprintf(stderr, "%s: %s\n", opt.input.c_str(), err.c_str());
        return 1;
    }
    std::printf("form        %s\n", sum.text ? "text" : "binary");
    std::printf("cores       %u\n", sum.header.numCores);
    std::printf("tenants     %u\n", sum.header.numTenants);
    std::printf("records     %llu (%llu writes)\n",
                (unsigned long long)sum.records,
                (unsigned long long)sum.writes);
    std::printf("instrs      %llu\n", (unsigned long long)sum.instrs);
    std::uint64_t chunks = 0;
    for (std::uint64_t c : sum.chunksPerCore)
        chunks += c;
    std::printf("chunk marks %llu\n", (unsigned long long)chunks);
    std::printf("seed        %llu\n",
                (unsigned long long)sum.header.seed);
    std::printf("chunk-instrs %u\n", sum.header.chunkInstrs);
    std::printf("ok\n");
    return 0;
}

struct Command
{
    const char* name;
    /** Takes one positional argument (a file or scenario name). */
    bool positional;
    /** The options it reads, besides --help; any other is an error. */
    std::vector<std::string> options;
    int (*run)(TraceOptions&);
};

const Command kCommands[] = {
    {"list", false, {}, cmdList},
    {"gen", true,
     {"-o", "--output", "--procs", "--tenants", "--requests", "--seed",
      "--text"},
     cmdGen},
    {"record", false,
     {"-o", "--output", "--app", "--procs", "--chunks", "--seed",
      "--protocol"},
     cmdRecord},
    {"replay", true, {"--protocol", "--procs", "--chunks", "--csv", "--faults"},
     cmdReplay},
    {"cat", true, {"--limit"}, cmdCat},
    {"convert", true, {"-o", "--output", "--text", "--binary"}, cmdConvert},
    {"validate", true, {}, cmdValidate},
};

const char* const kCommandHelp =
    "commands:\n"
    "  gen SCENARIO -o FILE        generate a serving scenario as a trace\n"
    "  record -o FILE              capture a synthetic run as a trace\n"
    "  replay FILE                 run a trace through the simulator\n"
    "  cat FILE                    print records as text\n"
    "  convert FILE -o OUT         re-encode a trace (--text | --binary)\n"
    "  validate FILE               strict end-to-end scan + summary\n"
    "  list                        list the scenario library\n"
    "options:\n";

} // namespace

int
main(int argc, char** argv)
{
    TraceOptions opt;
    const cli::Table flags = cli::traceFlags(opt);
    if (argc < 2)
        SBULK_FATAL("missing COMMAND (see --help)");
    const std::string cmd = argv[1];
    for (const Command& c : kCommands) {
        if (cmd != c.name)
            continue;
        cli::Table own;
        for (const cli::Flag& f : flags)
            if (f.name == std::string("--help") ||
                std::find(c.options.begin(), c.options.end(), f.name) !=
                    c.options.end())
                own.push_back(f);
        std::vector<std::string*> positionals;
        if (c.positional)
            positionals.push_back(&opt.input);
        cli::require(cli::parse(own, argc, argv, 2, positionals));
        if (!opt.help)
            return c.run(opt);
        break;
    }
    if (!opt.help && cmd != "--help" && cmd != "-h")
        SBULK_FATAL("unknown command '%s' (see --help)", cmd.c_str());
    std::fputs(cli::usage("sbulk-trace COMMAND [options]", flags,
                          kCommandHelp)
                   .c_str(),
               stdout);
    return 0;
}
