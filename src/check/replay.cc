#include "check/replay.hh"

#include <memory>

#include "fault/liveness.hh"
#include "fault/transport.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace check
{

namespace
{

/** Conflict-heavy workload: tiny footprint, hot shared lines, no phasing. */
SyntheticParams
checkWorkload(std::uint64_t seed)
{
    SyntheticParams p;
    p.memFraction = 0.5;
    p.writeFraction = 0.5;
    p.privatePages = 2;
    p.sharedPages = 4;
    p.sharedBlocks = 8;
    p.sharedFraction = 0.5;
    p.sharedWriteFraction = 0.5;
    p.zipfAlpha = 0.9;
    p.spatialRunMean = 2.0;
    p.accessesPerLine = 1.0;
    p.phaseInstrs = 0; // unphased: writers and readers race freely
    p.hotLines = 4;
    p.hotFraction = 0.05;
    p.seed = seed;
    return p;
}

/**
 * Build the system, attach @p sched, the oracles (plus the liveness monitor
 * under faults and the trace printer under --debug-trace), and drive the
 * event queue manually to completion / deadlock / tick budget.
 */
template <typename Scheduler>
CheckResult
drive(const CheckConfig& cfg, Scheduler& make_scheduler)
{
    SystemConfig sys_cfg;
    sys_cfg.numProcs = cfg.procs;
    sys_cfg.protocol = cfg.protocol;
    sys_cfg.directNetwork = true; // fixed latency: the FIFO clamp's model
    sys_cfg.core.chunkInstrs = cfg.chunkInstrs;
    sys_cfg.core.chunksToRun = cfg.chunksPerCore;
    sys_cfg.proto.sbBreak = cfg.sbBreak;

    OracleSuite suite;
    fault::LivenessMonitor monitor;
    TracePrinter printer(cfg.debugTrace);
    ObserverChain observers{&suite};
    const bool faulted = cfg.faults.enabled();
    if (faulted) {
        observers.add(&monitor);
        fault::FaultTransport::armRecovery(cfg.faults, sys_cfg.proto);
    }
    if (cfg.debugTrace)
        observers.add(&printer);
    sys_cfg.observer = &observers;

    const SyntheticParams params = checkWorkload(cfg.seed);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.procs; ++n) {
        streams.push_back(std::make_unique<SyntheticStream>(
            params, n, cfg.procs, sys_cfg.mem.l2.lineBytes,
            sys_cfg.mem.pageBytes));
    }

    System sys(sys_cfg, std::move(streams));
    suite.setClock(&sys.eventQueue());
    monitor.setClock(&sys.eventQueue());
    printer.attach(sys.network());

    auto sched = make_scheduler(sys.eventQueue());
    sys.eventQueue().setSchedulePolicy(&sched);
    sys.network().setDeliveryJitter(sched.jitterFn());

    std::unique_ptr<fault::FaultTransport> transport;
    if (faulted)
        transport = std::make_unique<fault::FaultTransport>(
            sys.network(), cfg.faults, /*stream_salt=*/cfg.seed);

    // run(0) starts the cores and returns without stepping; from here the
    // checker owns the loop so deadlock is an observation, not a panic.
    sys.run(0);

    CheckResult r;
    EventQueue& eq = sys.eventQueue();
    while (!sys.allCoresDone()) {
        if (eq.now() > cfg.tickLimit) {
            r.timedOut = true;
            break;
        }
        if (!eq.step()) {
            r.deadlocked = true;
            break;
        }
    }
    r.completed = sys.allCoresDone();
    if (r.completed) {
        // Drain in-flight cleanup traffic (occupancy releases, commit_done
        // fan-out, ...) so quiescence is judged on a settled system.
        while (eq.now() <= cfg.tickLimit && eq.step()) {
        }
    }
    r.endTick = eq.now();

    suite.finalize(r.completed, sys.protocolQuiescent());
    r.violations = suite.violations();
    r.commitsChecked = suite.commitsChecked();
    if (r.deadlocked) {
        r.violations.push_back(Violation{
            "deadlock",
            "event queue drained with unfinished cores", eq.now()});
    }
    if (r.timedOut) {
        r.violations.push_back(Violation{
            "livelock",
            "run exceeded the tick budget (" +
                std::to_string(cfg.tickLimit) + " ticks)",
            eq.now()});
    }
    if (faulted) {
        // The no-stuck-commit liveness oracle plus transport quiescence:
        // every loss must have been repaired by the end of a drained run.
        monitor.finalize(transport.get());
        for (const fault::StuckCommit& s : monitor.stuck()) {
            r.violations.push_back(Violation{"liveness", s.diagnosis,
                                             s.since});
        }
        if (r.completed && !transport->quiescent()) {
            r.violations.push_back(Violation{
                "transport",
                "unrecovered in-flight state after drain: " +
                    transport->describePending(),
                eq.now()});
        }
        r.faultsInjected = transport->injected().size();
        r.retransmissions = transport->stats().retransmissions.value();
        r.dupsDropped = transport->stats().dupsDropped.value();
        r.watchdogFires = sys.metrics().watchdogFires.value();
        r.stuckCommits = monitor.stuck().size();
        r.recoveryLatencyMean = transport->stats().recoveryLatency.mean();
    }

    r.trace = sched.trace();
    r.traceHash = r.trace.hash();

    // Detach before the scheduler goes out of scope (the transport
    // detaches itself).
    sys.eventQueue().setSchedulePolicy(nullptr);
    sys.network().setDeliveryJitter(nullptr);
    return r;
}

} // namespace

CheckResult
runSchedule(const CheckConfig& cfg)
{
    auto make = [&cfg](const EventQueue& eq) {
        return RandomScheduler(cfg.seed, cfg.maxJitter, eq);
    };
    return drive(cfg, make);
}

CheckResult
replaySchedule(const CheckConfig& cfg, const ScheduleTrace& trace,
               std::size_t prefix)
{
    auto make = [&trace, prefix](const EventQueue& eq) {
        return ReplayScheduler(trace, prefix, eq);
    };
    return drive(cfg, make);
}

ShrinkResult
shrinkFailure(const CheckConfig& cfg, const ScheduleTrace& trace)
{
    // Smallest prefix in [0, N] whose replay still violates. Violation
    // presence is not strictly monotone in the prefix, so the binary
    // search is a heuristic — but the returned result always comes from
    // a real replay of the returned prefix.
    std::size_t lo = 0;
    std::size_t hi = trace.decisions.size();
    ShrinkResult best{hi, replaySchedule(cfg, trace, hi)};
    if (best.result.ok())
        return best; // full replay no longer fails; report it as-is

    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        CheckResult r = replaySchedule(cfg, trace, mid);
        if (!r.ok()) {
            hi = mid;
            best = ShrinkResult{mid, std::move(r)};
        } else {
            lo = mid + 1;
        }
    }
    return best;
}

} // namespace check
} // namespace sbulk
