/**
 * @file
 * sbulk-sweep: run a cross-product of (applications x protocols x
 * processor counts) and emit one CSV row per run — the bulk data source
 * for plotting or regression-tracking the whole evaluation.
 *
 *   sbulk-sweep                          # 18 apps x 4 protocols x {32,64}
 *   sbulk-sweep --apps Radix,LU --procs 16,32,64 --protocols scalablebulk
 *   sbulk-sweep --chunks 640 --jobs 8 > sweep.csv
 *
 * Trace-driven sweeps (see WORKLOADS.md) swap the application axis for
 * serving scenarios or a recorded trace, and add per-tenant columns (one
 * "all" row plus one row per tenant, long format):
 *
 *   sbulk-sweep --scenario kv-zipf,staging-pipeline --procs 8 --tenants 4
 *   sbulk-sweep --trace run.sbt --protocols scalablebulk,tcc
 *
 * --figure-data appends the columns scripts/figures.py builds the paper's
 * tables from: six per-class message counts and the directories-per-commit
 * (width 1) and commit-latency (width 25) histograms, as ';'-joined bucket
 * counts with trailing zeros trimmed.
 *
 * --jobs N runs up to N simulations concurrently; each worker owns a
 * private System and EventQueue, and rows are emitted in matrix order, so
 * the output is byte-identical to a serial run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "cli.hh"
#include "sim/parallel.hh"

namespace
{

/** The --figure-data columns: the six message classes, then each
 *  histogram's bucket counts joined by ';', trailing zero buckets trimmed. */
std::string
figureColumns(const sbulk::RunResult& r)
{
    using sbulk::MsgClass;
    std::string out;
    for (MsgClass c : {MsgClass::MemRd, MsgClass::RemoteShRd,
                       MsgClass::RemoteDirtyRd, MsgClass::LargeCMessage,
                       MsgClass::SmallCMessage, MsgClass::Other}) {
        out += ',';
        out += std::to_string(r.traffic.messages(c));
    }
    for (const sbulk::Distribution* d : {&r.dirsPerCommit, &r.commitLatency}) {
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

int
main(int argc, char** argv)
{
    using namespace sbulk;
    cli::SweepOptions opt;
    const cli::Table flags = cli::sweepFlags(opt);
    cli::require(cli::parse(flags, argc, argv));
    if (opt.help) {
        std::fputs(cli::usage("sbulk-sweep [options]", flags).c_str(),
                   stdout);
        return 0;
    }
    if (opt.listApps || opt.listScenarios) {
        opt.listApps ? cli::printApps() : cli::printScenarios();
        return 0;
    }
    // Every run is checked before the first one starts.
    std::vector<cli::SweepOptions::Run> matrix;
    cli::require(opt.resolve(matrix));
    const bool traced = opt.traced();
    const fault::FaultPlan& faults = opt.base.faults;
    // Keep runner workers x shard threads within the machine's cores:
    // each of the --jobs sweep workers spawns `shards` event threads.
    setShardThreadFactor(opt.base.shards);

    // Each worker simulates into a private System/EventQueue and renders
    // its row into the slot for its matrix index; rows are printed in
    // matrix order afterwards, so output is identical at any --jobs.
    std::vector<std::string> rows(matrix.size());
    const unsigned jobs = opt.jobs == 0 ? defaultJobs() : opt.jobs;
    parallelFor(matrix.size(), jobs, [&](std::size_t i) {
        const RunConfig& cfg = matrix[i].cfg;
        const RunResult r = runExperiment(cfg);
        const double total = r.breakdown.total();
        std::string row = detail::formatMsg(
            "%s,%s,%s,%u,%llu,%llu,%llu,%.4f,%.4f,%.4f,%.4f,%.1f,"
            "%llu,%.2f,%.2f,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,"
            "%.4f",
            r.app.c_str(), matrix[i].suite,
            protocolName(cfg.protocol), cfg.procs,
            (unsigned long long)r.seed,
            (unsigned long long)r.makespan,
            (unsigned long long)r.commits,
            r.breakdown.useful / total,
            r.breakdown.cacheMiss / total,
            r.breakdown.commit / total,
            r.breakdown.squash / total, r.commitLatencyMean,
            (unsigned long long)r.commitLatency.percentile(0.9),
            r.dirsPerCommitMean, r.writeDirsPerCommitMean,
            r.bottleneckRatio, r.chunkQueueLength,
            (unsigned long long)r.commitFailures,
            (unsigned long long)r.squashesTrueConflict,
            (unsigned long long)r.squashesAliasing,
            (unsigned long long)r.commitRecalls,
            (unsigned long long)r.traffic.totalMessages(),
            r.loads ? double(r.l1Hits) / double(r.loads) : 0.0);
        // Degradation columns exist only under --faults, so the default
        // CSV stays byte-identical to the pre-fault sweep.
        if (faults.enabled()) {
            row += detail::formatMsg(
                ",%llu,%llu,%llu,%llu,%llu,%.1f",
                (unsigned long long)r.faultsInjected,
                (unsigned long long)r.retransmissions,
                (unsigned long long)r.dupsDropped,
                (unsigned long long)r.watchdogFires,
                (unsigned long long)r.retryEscalations,
                r.recoveryLatencyMean);
        }
        // --figure-data columns come last, after the fault and tenant ones.
        std::string tail = opt.figureData ? figureColumns(r) : "";
        tail += '\n';
        if (!traced) {
            rows[i] = row + tail;
            return;
        }
        // Per-tenant long format: every tenant (plus an "all" aggregate)
        // repeats the run columns, so each line is self-describing.
        for (const std::string& tenant : cli::tenantRows(r, cli::kTenantCsv))
            rows[i] += row + tenant + tail;
    });

    std::printf("app,suite,protocol,procs,seed,makespan,commits,usefulFrac,"
                "cacheMissFrac,commitFrac,squashFrac,latMean,latP90,dirs,"
                "writeDirs,bottleneck,queue,failures,squashTrue,"
                "squashAlias,recalls,messages,l1HitRate%s%s%s\n",
                faults.enabled() ? ",faultsInjected,retransmissions,"
                                   "dupsDropped,watchdogFires,"
                                   "retryEscalations,recoveryLatMean"
                                 : "",
                traced ? ",tenant,tenantCommits,tenantSquashes,tenantP50,"
                         "tenantP99,tenantSquashRate,tenantTput"
                       : "",
                opt.figureData ? ",memRd,remoteShRd,remoteDirtyRd,largeC,"
                                 "smallC,other,dirsHist,latHist"
                               : "");
    for (const std::string& row : rows)
        std::fputs(row.c_str(), stdout);
    return 0;
}
