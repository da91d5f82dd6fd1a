/**
 * @file
 * The command-line layer (tools/cli.hh) and RunConfig::validate(), driven
 * in-process: every bad line returns an error instead of exiting or
 * panicking, every good line fills the fields it names, and --help lists
 * each flag of each tool exactly once.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"

namespace
{

using namespace sbulk;
using namespace sbulk::cli;

/** parse() over a command line given without its program name. */
Error
parseLine(const Table& table, std::vector<const char*> args)
{
    args.insert(args.begin(), "tool");
    return parse(table, int(args.size()), args.data());
}

/** Parse a sbulk-sim line, then resolve it: the tool's whole front end. */
Error
simLine(SimOptions& o, const std::vector<const char*>& args)
{
    if (Error err = parseLine(simFlags(o), args))
        return err;
    return o.resolve();
}

Error
sweepLine(const std::vector<const char*>& args,
          std::vector<RunConfig>* runs = nullptr)
{
    SweepOptions o;
    if (Error err = parseLine(sweepFlags(o), args))
        return err;
    std::vector<RunConfig> matrix;
    Error err = o.resolve(matrix);
    if (runs)
        *runs = matrix;
    return err;
}

RunConfig
appRun()
{
    RunConfig cfg;
    cfg.app = findApp("Radix");
    cfg.procs = 16;
    return cfg;
}

TEST(CliParse, BadNumbersNameTheFlagAndRange)
{
    SimOptions o;
    const Error err = parseLine(simFlags(o), {"--procs", "abc"});
    ASSERT_TRUE(err);
    EXPECT_EQ(*err, "--procs: 'abc' is not an integer in 1..4096");
    for (const char* bad : {"0", "4097", "-1", "+4", "12x", " 12", ""}) {
        SimOptions fresh;
        EXPECT_TRUE(parseLine(simFlags(fresh), {"--procs", bad}))
            << "accepted --procs '" << bad << "'";
    }
    SimOptions big;
    EXPECT_TRUE(parseLine(simFlags(big),
                          {"--seed", "99999999999999999999999"}));
}

TEST(CliParse, EveryBadSimLineReturnsAnError)
{
    const std::vector<std::vector<const char*>> lines = {
        {"--procs", "0"},
        {"--procs", "abc"},
        {"--sig-bits", "3"},
        {"--shards", "64", "--procs", "16"},
        {"--shards", "2", "--shard-map", "file:/nonexistent"},
        {"--scenario", "kv-oltp", "--tenants", "0"},
        {"--chunk-instrs", "0", "--procs", "4", "--chunks", "64"},
        {"--scenario", "kv-zipf", "--chunk-instrs", "500"},
        {"--trace", "commit,group"},
        {"--app", "NoSuchApp"},
        {"--protocol", "mesi"},
        {"--mem-fraction", "1.5"},
        {"--debug-trace", "nonsense"},
        {"--procs"},
        {"--no-such-flag"},
        {"stray"},
    };
    for (const auto& line : lines) {
        SimOptions o;
        EXPECT_TRUE(simLine(o, line)) << "accepted: " << line[0];
    }
}

TEST(CliParse, EveryBadSweepLineReturnsAnError)
{
    EXPECT_TRUE(sweepLine({"--procs", "0"}));
    EXPECT_TRUE(sweepLine({"--procs", "4", "--shards", "9"}));
    EXPECT_TRUE(sweepLine({"--seed", "abc"}));
    EXPECT_TRUE(sweepLine({"--procs", "4,,x"}));
    EXPECT_TRUE(sweepLine({"--apps", "NoSuchApp"}));
    EXPECT_TRUE(sweepLine({"--scenario", "no-such-scenario"}));
    EXPECT_TRUE(sweepLine({"--protocols", "tcc,mesi"}));
    EXPECT_TRUE(sweepLine({"--faults", "drop=2"}));
    EXPECT_TRUE(sweepLine({"--apps", "LU", "--scenario", "kv-zipf"}));
    EXPECT_TRUE(
        sweepLine({"--scenario", "kv-zipf", "--chunk-instrs", "500"}));
    // Parses (1..65536 bits), then fails the run check in resolve(): three
    // bits do not split into four banks.
    EXPECT_TRUE(sweepLine({"--sig-bits", "3"}));
}

TEST(CliParse, EveryBadCheckLineReturnsAnError)
{
    for (const std::vector<const char*>& line :
         std::vector<std::vector<const char*>>{
             {"--procs", "0"},
             {"--chunk-instrs", "0"},
             {"--break", "sometimes"},
             {"--replay-seed", "0"},
             {"--trace", "commit"}}) {
        CheckOptions o;
        EXPECT_TRUE(parseLine(checkFlags(o), line)) << line[0];
    }
}

TEST(CliParse, GoodSimLineFillsTheRun)
{
    SimOptions o;
    ASSERT_EQ(simLine(o, {"--app", "FFT", "--procs", "16", "--protocol",
                          "tcc", "--chunks", "320", "--chunk-instrs",
                          "1000", "--sig-bits", "1024", "--seed", "7",
                          "--no-oci", "--shards", "2", "--retry-delay",
                          "20", "--csv"}),
              std::nullopt);
    EXPECT_EQ(o.run.app, findApp("FFT"));
    EXPECT_EQ(o.run.procs, 16u);
    EXPECT_EQ(o.run.protocol, ProtocolKind::TCC);
    EXPECT_EQ(o.run.totalChunks, 320u);
    EXPECT_EQ(o.run.chunkInstrs, 1000u);
    EXPECT_EQ(o.run.sig.totalBits, 1024u);
    EXPECT_EQ(o.run.seedOverride, 7u);
    EXPECT_FALSE(o.run.proto.oci);
    EXPECT_EQ(o.run.shards, 2u);
    EXPECT_EQ(o.run.proto.commitRetryDelay, 20u);
    EXPECT_TRUE(o.csv);
}

TEST(CliParse, SimDefaultsAndCustomWorkload)
{
    SimOptions o;
    ASSERT_EQ(simLine(o, {"--custom", "--shared-fraction", "0.5",
                          "--hot-lines", "32"}),
              std::nullopt);
    EXPECT_EQ(o.run.app, &o.customApp);
    EXPECT_DOUBLE_EQ(o.customApp.params.sharedFraction, 0.5);
    EXPECT_EQ(o.customApp.params.hotLines, 32u);
    EXPECT_EQ(o.run.procs, 64u);
    EXPECT_EQ(o.run.totalChunks, 1280u);
    EXPECT_EQ(o.run.chunkInstrs, 2000u);

    SimOptions scen;
    ASSERT_EQ(simLine(scen, {"--scenario", "kv-zipf", "--procs", "4",
                             "--requests", "64", "--seed", "9"}),
              std::nullopt);
    EXPECT_EQ(scen.run.app, nullptr);
    EXPECT_EQ(scen.run.totalChunks, 0u) << "traced runs defer to the trace";
    EXPECT_EQ(scen.run.scenarioParams.requests, 64u);
    EXPECT_EQ(scen.run.scenarioParams.seed, 9u);
}

TEST(CliParse, GoodSweepLineBuildsTheMatrixInOrder)
{
    std::vector<RunConfig> runs;
    ASSERT_EQ(sweepLine({"--apps", "Radix,LU", "--protocols", "tcc,seq",
                         "--procs", "4,8", "--chunks", "64", "--jobs", "2",
                         "--faults", "seed=3,drop=0.02", "--chunk-instrs",
                         "500", "--sig-bits", "1024", "--no-oci",
                         "--starvation-max", "8", "--rotation", "2000",
                         "--figure-data"},
                        &runs),
              std::nullopt);
    ASSERT_EQ(runs.size(), 8u);
    EXPECT_EQ(runs[0].app, findApp("Radix"));
    EXPECT_EQ(runs[0].protocol, ProtocolKind::TCC);
    EXPECT_EQ(runs[0].procs, 4u);
    EXPECT_EQ(runs[1].procs, 8u);
    EXPECT_EQ(runs[2].protocol, ProtocolKind::SEQ);
    EXPECT_EQ(runs[7].app, findApp("LU"));
    EXPECT_EQ(runs[7].app->suite, "SPLASH-2");
    for (const RunConfig& run : runs) {
        EXPECT_EQ(run.totalChunks, 64u);
        EXPECT_TRUE(run.faults.enabled());
        EXPECT_EQ(run.chunkInstrs, 500u);
        EXPECT_EQ(run.sig.totalBits, 1024u);
        EXPECT_FALSE(run.proto.oci);
        EXPECT_EQ(run.proto.starvationMax, 8u);
        EXPECT_EQ(run.proto.leaderRotationInterval, 2000u);
    }

    ASSERT_EQ(sweepLine({}, &runs), std::nullopt);
    EXPECT_EQ(runs.size(), 18u * 4u * 2u);
    EXPECT_EQ(runs[0].totalChunks, 1280u);
    EXPECT_EQ(runs[0].chunkInstrs, 2000u);
}

TEST(CliParse, GoodCheckLineFillsTheConfig)
{
    CheckOptions o;
    ASSERT_EQ(parseLine(checkFlags(o),
                        {"--protocols", "scalablebulk", "--seeds", "50",
                         "--procs", "4", "--chunks", "12", "--break",
                         "fail-both", "--keep-going", "--expect-violations",
                         "--jitter", "4", "--replay-prefix", "3"}),
              std::nullopt);
    EXPECT_EQ(o.protocols,
              std::vector<ProtocolKind>{ProtocolKind::ScalableBulk});
    EXPECT_EQ(o.seeds, 50u);
    EXPECT_EQ(o.base.procs, 4u);
    EXPECT_EQ(o.base.chunksPerCore, 12u);
    EXPECT_EQ(o.base.sbBreak, SbBreakMode::FailBothOnCollision);
    EXPECT_TRUE(o.keepGoing);
    EXPECT_TRUE(o.expectViolations);
    EXPECT_EQ(o.base.maxJitter, 4u);
    EXPECT_EQ(o.replayPrefix, 3u);
}

TEST(CliParse, GoodTraceLineFillsOptionsAndPositional)
{
    TraceOptions o;
    const char* argv[] = {"sbulk-trace", "gen", "kv-zipf", "--procs", "16",
                          "--tenants", "2", "--text", "-o", "x"};
    ASSERT_EQ(parse(traceFlags(o), 10, argv, 2, {&o.input}), std::nullopt);
    EXPECT_EQ(o.input, "kv-zipf");
    EXPECT_EQ(o.procs, 16u);
    EXPECT_EQ(o.scen.tenants, 2u);
    EXPECT_TRUE(o.text);
    EXPECT_EQ(o.output, "x");

    TraceOptions missing;
    EXPECT_TRUE(parse(traceFlags(missing), 2, argv, 2, {&missing.input}));
    TraceOptions extra;
    EXPECT_TRUE(parse(traceFlags(extra), 3, argv, 2, {}));
    TraceOptions help;
    const char* help_argv[] = {"sbulk-trace", "gen", "-h"};
    EXPECT_EQ(parse(traceFlags(help), 3, help_argv, 2, {&help.input}),
              std::nullopt);
    EXPECT_TRUE(help.help);
}

TEST(CliParse, ProtocolSpellingsRoundTrip)
{
    for (ProtocolKind kind : kProtocols)
        EXPECT_EQ(parseProtocol(protocolFlag(kind)), kind);
    EXPECT_EQ(parseProtocol("ScalableBulk"), std::nullopt);
}

TEST(CliValidate, AcceptsTheDefaults)
{
    EXPECT_EQ(appRun().validate(), std::nullopt);

    // perfbench's radix-256-sharded runs name the contiguous map.
    RunConfig sharded = appRun();
    sharded.procs = 256;
    sharded.shards = 2;
    sharded.shardMap = "contiguous";
    EXPECT_EQ(sharded.validate(), std::nullopt);
}

TEST(CliValidate, RejectsEachBadField)
{
    std::vector<RunConfig> bad(11, appRun());
    bad[0].procs = 0;
    bad[1].procs = 4097;
    bad[2].shards = 17;
    bad[3].chunkInstrs = 0;
    bad[4].sig.totalBits = 3;
    bad[5].shardMap = "striped"; // contiguous is the only policy
    bad[6].shardMap = "balanced";
    bad[7].shards = 2;
    bad[7].shardMap = "file:/nonexistent";
    bad[8].app = nullptr; // no workload source
    bad[9].scenario = "kv-oltp"; // two sources
    bad[10].app = nullptr;
    bad[10].scenario = "kv-oltp";
    bad[10].scenarioParams.tenants = 0;
    for (std::size_t i = 0; i < bad.size(); ++i)
        EXPECT_TRUE(bad[i].validate()) << "config " << i;

    RunConfig record = appRun();
    record.app = nullptr;
    record.scenario = "kv-zipf";
    record.recordPath = "out.sbt";
    EXPECT_TRUE(record.validate());
}

/** Help lines that introduce @p flag (continuations are indented). */
int
entryLines(const std::string& help, const std::string& flag)
{
    std::istringstream in(help);
    int n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.rfind("  " + flag + " ", 0) == 0;
    return n;
}

TEST(CliHelp, ListsEveryFlagExactlyOnce)
{
    SimOptions sim;
    SweepOptions sweep;
    CheckOptions check;
    TraceOptions trace;
    for (const Table& table : {simFlags(sim), sweepFlags(sweep),
                               checkFlags(check), traceFlags(trace)}) {
        const std::string text = usage("tool [options]", table);
        for (const Flag& f : table)
            EXPECT_EQ(entryLines(text, f.name), 1) << f.name;
    }
}

} // namespace
