/**
 * @file
 * sbulk-sim: command-line front end to the simulator.
 *
 * Runs one experiment — an application model (or fully custom synthetic
 * parameters) on a chosen protocol and machine size — and reports every
 * metric of the paper's evaluation, as a human-readable report or CSV.
 *
 *   sbulk-sim --app Radix --protocol tcc --procs 64
 *   sbulk-sim --app Canneal --procs 32 --protocol scalablebulk --csv
 *   sbulk-sim --list
 *   sbulk-sim --custom --shared-fraction 0.5 --hot-fraction 0.05
 *   sbulk-sim --app Radix --procs 8 --record radix.sbt   # capture a trace
 *   sbulk-sim --trace radix.sbt --faults "seed=3, drop=0.02"
 *
 * --csv prints exactly the rows sbulk-sweep prints for the same run.
 * Every knob of SyntheticParams, ProtoConfig, and the machine geometry is
 * reachable; run with --help for the full set.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "cli.hh"
#include "sim/parallel.hh"

namespace
{

using namespace sbulk;

void
printReport(const cli::SimOptions& opt, const RunResult& r)
{
    const double total = r.breakdown.total();
    std::printf("application      %s\n", r.app.c_str());
    std::printf("protocol         %s\n", protocolName(r.protocol));
    std::printf("processors       %u\n", r.procs);
    std::printf("seed             %llu\n", (unsigned long long)r.seed);
    std::printf("simulated time   %llu cycles\n",
                (unsigned long long)r.makespan);
    std::printf("chunks committed %llu\n", (unsigned long long)r.commits);
    std::printf("\n-- execution breakdown --\n");
    std::printf("useful           %6.2f%%\n",
                100 * r.breakdown.useful / total);
    std::printf("cache miss       %6.2f%%\n",
                100 * r.breakdown.cacheMiss / total);
    std::printf("commit           %6.2f%%\n",
                100 * r.breakdown.commit / total);
    std::printf("squash           %6.2f%%\n",
                100 * r.breakdown.squash / total);
    std::printf("\n-- commit behaviour --\n");
    std::printf("mean latency     %.1f cycles (p90 %llu, max %llu)\n",
                r.commitLatencyMean,
                (unsigned long long)r.commitLatency.percentile(0.9),
                (unsigned long long)r.commitLatency.max());
    std::printf("dirs per commit  %.2f (write group %.2f)\n",
                r.dirsPerCommitMean, r.writeDirsPerCommitMean);
    std::printf("bottleneck ratio %.2f\n", r.bottleneckRatio);
    std::printf("queue length     %.2f\n", r.chunkQueueLength);
    std::printf("failures/retries %llu\n",
                (unsigned long long)r.commitFailures);
    std::printf("squashes         %llu true, %llu aliasing, %llu recalls\n",
                (unsigned long long)r.squashesTrueConflict,
                (unsigned long long)r.squashesAliasing,
                (unsigned long long)r.commitRecalls);
    std::printf("\n-- memory & network --\n");
    std::printf("L1 hit rate      %.2f%%\n",
                r.loads ? 100.0 * double(r.l1Hits) / double(r.loads) : 0.0);
    std::printf("L2 misses        %llu\n", (unsigned long long)r.l2Misses);
    std::printf("messages         %llu  (large commit %llu, small commit "
                "%llu)\n",
                (unsigned long long)r.traffic.totalMessages(),
                (unsigned long long)r.traffic.messages(
                    MsgClass::LargeCMessage),
                (unsigned long long)r.traffic.messages(
                    MsgClass::SmallCMessage));

    if (!r.shardStats.empty()) {
        std::printf("\n-- parallel kernel (%zu shards, %.3fs wall) --\n",
                    r.shardStats.size(), r.shardWallSec);
        std::printf("%-8s %12s %10s %8s %9s %6s %6s\n", "shard",
                    "events", "windows", "empty", "busySec", "util",
                    "stall");
        for (std::size_t s = 0; s < r.shardStats.size(); ++s) {
            const auto& st = r.shardStats[s];
            std::printf("%-8zu %12llu %10llu %8llu %9.3f %5.1f%% "
                        "%5.1f%%\n",
                        s, (unsigned long long)st.events,
                        (unsigned long long)st.windows,
                        (unsigned long long)st.emptyWindows, st.busySec,
                        r.shardWallSec > 0
                            ? 100.0 * st.busySec / r.shardWallSec
                            : 0.0,
                        r.shardWallSec > 0
                            ? 100.0 * st.stallSec / r.shardWallSec
                            : 0.0);
        }
        // Every shard steps through the same windows.
        const std::uint64_t windows = r.shardStats[0].windows;
        std::printf("min lookahead    %llu cycles (path-closed)\n",
                    (unsigned long long)r.shardLookaheadMin);
        std::printf("windows/kcycle   %.2f\n",
                    r.makespan ? 1000.0 * double(windows) /
                                     double(r.makespan)
                               : 0.0);
    }

    if (opt.run.faults.enabled()) {
        std::printf("\n-- faults --\n");
        std::printf("injected         %llu\n",
                    (unsigned long long)r.faultsInjected);
        std::printf("retransmissions  %llu (%llu duplicates dropped)\n",
                    (unsigned long long)r.retransmissions,
                    (unsigned long long)r.dupsDropped);
        std::printf("watchdog fires   %llu\n",
                    (unsigned long long)r.watchdogFires);
    }

    if (r.traced && !r.tenants.empty()) {
        std::printf("\n-- per-tenant serving metrics --\n");
        cli::printTenantTable(r);
    }

    if (opt.histogram) {
        std::printf("\n-- commit latency histogram --\n");
        const auto& hist = r.commitLatency;
        const double n = double(hist.count());
        for (std::size_t b = 0; b < hist.buckets().size(); ++b) {
            const double pct = n ? 100.0 * double(hist.buckets()[b]) / n
                                 : 0.0;
            if (pct < 0.05)
                continue;
            std::printf("  [%6zu..%6zu) %6.2f%% ",
                        b * hist.bucketWidth(),
                        (b + 1) * hist.bucketWidth(), pct);
            for (int k = 0; k < int(pct); ++k)
                std::printf("#");
            std::printf("\n");
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace sbulk;
    cli::SimOptions opt;
    const cli::Table flags = cli::simFlags(opt);
    cli::require(cli::parse(flags, argc, argv));
    if (opt.help) {
        std::fputs(cli::usage("sbulk-sim [options]", flags).c_str(), stdout);
        return 0;
    }
    if (opt.listApps || opt.listScenarios) {
        opt.listApps ? cli::printApps() : cli::printScenarios();
        return 0;
    }
    cli::require(opt.resolve());
    // Keep runner workers x shard threads within the machine's cores.
    setShardThreadFactor(opt.run.shards);

    StatSet stats;
    TracePrinter printer(opt.debugTrace);
    const RunResult r =
        runExperiment(opt.run, opt.fullStats ? &stats : nullptr,
                      opt.debugTrace ? &printer : nullptr);
    if (opt.fullStats)
        stats.dump(std::cout);
    else if (opt.csv)
        std::fputs((cli::csvHeader(opt.run.faults.enabled(), r.traced,
                                   /*figure_data=*/false) +
                    cli::csvRows(opt.run, r, /*figure_data=*/false))
                       .c_str(),
                   stdout);
    else
        printReport(opt, r);
    return 0;
}
