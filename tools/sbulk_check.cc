/**
 * @file
 * sbulk-check: schedule-exploration model checker for the four commit
 * protocols (see CHECKING.md).
 *
 * Sweeps seeds; each seed drives one small, conflict-heavy run under a
 * seeded random schedule (same-tick tie-breaks + per-message delivery
 * jitter) with every invariant oracle attached. A failing seed is
 * automatically shrunk to the shortest schedule-decision prefix that
 * still reproduces the violation, and a replay command is printed.
 *
 *   sbulk-check                                   # 500 seeds x 4 protocols
 *   sbulk-check --protocols scalablebulk --seeds 2000
 *   sbulk-check --replay-seed 17 --protocols tcc  # deterministic re-run
 *   sbulk-check --break fail-both --expect-violations
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "cli.hh"
#include "sim/parallel.hh"

namespace
{

using namespace sbulk;
using namespace sbulk::check;
using cli::CheckOptions;
using cli::protocolFlag;

void
printViolations(const CheckResult& r)
{
    for (const Violation& v : r.violations) {
        std::printf("    [%s] tick %llu: %s\n", v.oracle.c_str(),
                    (unsigned long long)v.when, v.detail.c_str());
    }
}

/** The command line reproducing this failure, for copy-paste. */
void
printReplayCommand(const CheckOptions& opt, ProtocolKind proto,
                   std::uint64_t seed, std::size_t prefix)
{
    std::printf("  replay: sbulk-check --protocols %s --replay-seed %llu "
                "--replay-prefix %zu --procs %u --jitter %llu --chunks %llu "
                "--chunk-instrs %u",
                protocolFlag(proto), (unsigned long long)seed, prefix,
                opt.base.procs, (unsigned long long)opt.base.maxJitter,
                (unsigned long long)opt.base.chunksPerCore,
                opt.base.chunkInstrs);
    if (opt.base.sbBreak == SbBreakMode::AdmitConflicting)
        std::printf(" --break admit-conflicting");
    else if (opt.base.sbBreak == SbBreakMode::FailBothOnCollision)
        std::printf(" --break fail-both");
    if (opt.base.faults.enabled())
        std::printf(" --faults \"%s\"",
                    opt.base.faults.serialize().c_str());
    std::printf("\n");
}

/** One-line degradation summary of a faulted run (omitted otherwise). */
void
printFaultSummary(const CheckResult& r)
{
    std::printf("    faults: %llu injected, %llu retransmission(s), "
                "%llu duplicate(s) dropped, %llu watchdog fire(s), "
                "recovery latency mean %.0f\n",
                (unsigned long long)r.faultsInjected,
                (unsigned long long)r.retransmissions,
                (unsigned long long)r.dupsDropped,
                (unsigned long long)r.watchdogFires,
                r.recoveryLatencyMean);
}

} // namespace

int
main(int argc, char** argv)
{
    CheckOptions opt;
    const cli::Table flags = cli::checkFlags(opt);
    cli::require(cli::parse(flags, argc, argv));
    if (opt.help) {
        std::fputs(cli::usage("sbulk-check [options]", flags).c_str(),
                   stdout);
        return 0;
    }
    if (opt.jobs == 0)
        opt.jobs = defaultJobs();
    std::uint64_t totalViolatingSeeds = 0;

    if (opt.replaySeed != 0) {
        // Deterministic re-run of one seed: regenerate the schedule from
        // the seed, then replay the requested decision prefix of it.
        for (ProtocolKind proto : opt.protocols) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.replaySeed;
            // Only the replay prints --debug-trace lines; this run just
            // regenerates the schedule.
            CheckConfig quiet = cfg;
            quiet.debugTrace = 0;
            const CheckResult original = runSchedule(quiet);
            const std::size_t prefix =
                std::min(opt.replayPrefix, original.trace.decisions.size());
            const CheckResult r =
                replaySchedule(cfg, original.trace, prefix);
            std::printf("%s seed %llu prefix %zu/%zu: end tick %llu, "
                        "schedule %016llx, %zu violation(s)%s\n",
                        protocolFlag(proto),
                        (unsigned long long)opt.replaySeed, prefix,
                        original.trace.decisions.size(),
                        (unsigned long long)r.endTick,
                        (unsigned long long)r.traceHash,
                        r.violations.size(),
                        prefix == original.trace.decisions.size() &&
                                r.traceHash == original.traceHash
                            ? " (byte-for-byte match)"
                            : "");
            printViolations(r);
            if (opt.base.faults.enabled())
                printFaultSummary(r);
            if (!r.ok())
                ++totalViolatingSeeds;
        }
        return totalViolatingSeeds > 0 ? (opt.expectViolations ? 0 : 1)
                                       : (opt.expectViolations ? 1 : 0);
    }

    for (ProtocolKind proto : opt.protocols) {
        std::unordered_set<std::uint64_t> schedules;
        std::uint64_t explored = 0;
        std::uint64_t violating = 0;
        std::uint64_t commits = 0;
        std::uint64_t faults = 0;
        std::uint64_t retx = 0;
        std::uint64_t dupDrops = 0;
        std::uint64_t watchdogs = 0;

        // Explore seeds concurrently (each run owns a private System and
        // EventQueue), then walk the results in seed order below. The
        // serial walk still stops at the first failure unless
        // --keep-going, so counters, printing, and exit status are
        // byte-identical to a serial sweep — parallelism only ever
        // computes results past the break that are then ignored.
        std::vector<CheckResult> results(opt.seeds);
        parallelFor(opt.seeds, opt.jobs, [&](std::size_t s) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.seedBase + s;
            results[s] = runSchedule(cfg);
        });

        for (std::uint64_t s = 0; s < opt.seeds; ++s) {
            CheckConfig cfg = opt.base;
            cfg.protocol = proto;
            cfg.seed = opt.seedBase + s;
            const CheckResult& r = results[s];
            ++explored;
            schedules.insert(r.traceHash);
            commits += r.commitsChecked;
            faults += r.faultsInjected;
            retx += r.retransmissions;
            dupDrops += r.dupsDropped;
            watchdogs += r.watchdogFires;

            if (!r.ok()) {
                ++violating;
                std::printf("%s seed %llu FAILED (%zu violation(s), "
                            "schedule %016llx, %zu decisions):\n",
                            protocolFlag(proto),
                            (unsigned long long)cfg.seed,
                            r.violations.size(),
                            (unsigned long long)r.traceHash,
                            r.trace.decisions.size());
                printViolations(r);
                if (opt.base.faults.enabled())
                    printFaultSummary(r);

                const ShrinkResult shrunk = shrinkFailure(cfg, r.trace);
                std::printf("  shrunk to decision prefix %zu/%zu (%zu "
                            "violation(s) persist)\n",
                            shrunk.prefix, r.trace.decisions.size(),
                            shrunk.result.violations.size());
                printReplayCommand(opt, proto, cfg.seed, shrunk.prefix);
                if (!opt.keepGoing)
                    break;
            }
        }

        totalViolatingSeeds += violating;
        std::printf("%-13s %llu schedule(s) explored, %zu distinct, "
                    "%llu commits checked, %llu violating seed(s)\n",
                    protocolFlag(proto), (unsigned long long)explored,
                    schedules.size(), (unsigned long long)commits,
                    (unsigned long long)violating);
        if (opt.base.faults.enabled()) {
            std::printf("%-13s faults: %llu injected, %llu "
                        "retransmission(s), %llu duplicate(s) dropped, "
                        "%llu watchdog fire(s)\n",
                        protocolFlag(proto), (unsigned long long)faults,
                        (unsigned long long)retx,
                        (unsigned long long)dupDrops,
                        (unsigned long long)watchdogs);
        }
        std::fflush(stdout);
    }

    if (opt.expectViolations)
        return totalViolatingSeeds > 0 ? 0 : 1;
    return totalViolatingSeeds > 0 ? 1 : 0;
}
