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

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cli.hh"
#include "sim/parallel.hh"

int
main(int argc, char** argv)
{
#ifdef __GLIBC__
    // Keep freed run heaps mapped: trimming and re-faulting them between
    // runs cost a third of a sweep's wall time in page faults.
    mallopt(M_TRIM_THRESHOLD, 512 << 20);
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
#endif
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
    std::vector<RunConfig> matrix;
    cli::require(opt.resolve(matrix));
    // Keep runner workers x shard threads within the machine's cores:
    // each of the --jobs sweep workers spawns `shards` event threads.
    setShardThreadFactor(opt.base.shards);

    // Each worker simulates into a private System/EventQueue and renders
    // its rows into the slot for its matrix index; rows are printed in
    // matrix order afterwards, so output is identical at any --jobs.
    std::vector<std::string> rows(matrix.size());
    const unsigned jobs = opt.jobs == 0 ? defaultJobs() : opt.jobs;
    parallelFor(matrix.size(), jobs, [&](std::size_t i) {
        rows[i] = cli::csvRows(matrix[i], runExperiment(matrix[i]),
                               opt.figureData);
    });

    std::fputs(cli::csvHeader(opt.base.faults.enabled(), opt.traced(),
                              opt.figureData)
                   .c_str(),
               stdout);
    for (const std::string& row : rows)
        std::fputs(row.c_str(), stdout);
    return 0;
}
