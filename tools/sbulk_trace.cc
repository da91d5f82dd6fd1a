/**
 * @file
 * sbulk-trace: the access-trace toolbox (see WORKLOADS.md).
 *
 *   sbulk-trace gen kv-zipf --procs 8 --tenants 4 -o kv.sbt
 *   sbulk-trace cat kv.sbt [--limit N]        # text form to stdout
 *   sbulk-trace convert kv.sbt -o kv.txt --text
 *   sbulk-trace validate kv.sbt               # strict scan + summary
 *   sbulk-trace list                          # the scenario library
 *
 * These are the file tools only. Running a trace goes through the same
 * tools as every other workload: `sbulk-sim --trace F` for one run's
 * report, `sbulk-sweep --trace F` for CSV; `sbulk-sim --record F` captures
 * a synthetic run, and replaying the capture reproduces its statistics.
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
    {"cat", true, {"--limit"}, cmdCat},
    {"convert", true, {"-o", "--output", "--text", "--binary"}, cmdConvert},
    {"validate", true, {}, cmdValidate},
};

const char* const kCommandHelp =
    "commands:\n"
    "  gen SCENARIO -o FILE        generate a serving scenario as a trace\n"
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
