/**
 * @file
 * The model-checking runner: one schedule = one small System driven to
 * completion under a schedule controller with the invariant oracles
 * attached (see CHECKING.md).
 *
 * The runner drives the event queue manually instead of System::run() so
 * that a drained queue with unfinished cores (deadlock) or a run past the
 * tick budget (livelock) is *reported as a violation* instead of
 * panicking — a checker must survive the failures it is hunting.
 *
 * Workloads are conflict-heavy synthetic streams: a handful of hot lines
 * shared by every core, no phasing, so the protocols' collision and
 * squash machinery is exercised constantly even on 2-core runs.
 */

#ifndef SBULK_CHECK_REPLAY_HH
#define SBULK_CHECK_REPLAY_HH

#include <cstdint>

#include "check/oracles.hh"
#include "check/scheduler.hh"
#include "fault/fault_plan.hh"
#include "proto/trace_printer.hh"
#include "system/system.hh"

namespace sbulk
{
namespace check
{

/** One schedule exploration's inputs. */
struct CheckConfig
{
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    /** Cores (= directory modules; one per tile). */
    std::uint32_t procs = 2;
    /** Seed for both the workload and the schedule decisions. */
    std::uint64_t seed = 1;
    /** Largest per-message delivery jitter (0 = tie-breaks only). */
    Tick maxJitter = 8;
    std::uint64_t chunksPerCore = 6;
    std::uint32_t chunkInstrs = 80;
    /** Protocol sabotage knob (tests the oracles, not the protocol). */
    SbBreakMode sbBreak = SbBreakMode::None;
    /** Livelock stop: a schedule running past this tick is a violation. */
    Tick tickLimit = 1'000'000;
    /**
     * Fault-injection plan (see ROBUSTNESS.md). When enabled() the run
     * attaches a FaultTransport, arms the recovery layer (ARQ, watchdogs,
     * capped-exponential retry backoff), and adds the no-stuck-commit
     * liveness oracle on top of the invariant suite. The plan serializes
     * with the trace, so every faulted failure replays from
     * (seed, schedule trace, plan).
     */
    fault::FaultPlan faults{};
    /** Debug-trace categories printed to stderr, chained after the
     *  oracles (0 = none). */
    TracePrinter::Mask debugTrace = 0;
};

/** One schedule's outcome. */
struct CheckResult
{
    bool completed = false;
    bool deadlocked = false;
    bool timedOut = false;
    Tick endTick = 0;
    std::uint64_t commitsChecked = 0;
    /** Identifies the explored interleaving (ScheduleTrace::hash()). */
    std::uint64_t traceHash = 0;
    ScheduleTrace trace;
    std::vector<Violation> violations;

    /// @name Fault-sweep degradation counters (all zero without a plan)
    /// @{
    std::uint64_t faultsInjected = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t dupsDropped = 0;
    std::uint64_t watchdogFires = 0;
    std::uint64_t stuckCommits = 0;
    double recoveryLatencyMean = 0;
    /// @}

    bool ok() const { return violations.empty(); }
};

/** Run one randomly-scheduled exploration of cfg.seed. */
CheckResult runSchedule(const CheckConfig& cfg);

/**
 * Re-run cfg deterministically from the first @p prefix decisions of
 * @p trace (FIFO/zero-jitter defaults afterwards). With prefix ==
 * trace.decisions.size() this reproduces the recorded run byte-for-byte.
 */
CheckResult replaySchedule(const CheckConfig& cfg, const ScheduleTrace& trace,
                           std::size_t prefix);

/** A shrunk failure: the shortest violating decision prefix. */
struct ShrinkResult
{
    std::size_t prefix = 0;
    CheckResult result;
};

/**
 * Shrink a failing schedule to a minimal decision prefix that still
 * violates (binary search; the returned result is from an actual replay
 * of the returned prefix).
 */
ShrinkResult shrinkFailure(const CheckConfig& cfg,
                           const ScheduleTrace& trace);

} // namespace check
} // namespace sbulk

#endif // SBULK_CHECK_REPLAY_HH
