/**
 * @file
 * The experiment harness: builds a System for (application, processor
 * count, protocol), runs a fixed amount of total work, and harvests every
 * metric the paper's figures need. All bench binaries are thin loops over
 * runExperiment().
 */

#ifndef SBULK_SYSTEM_EXPERIMENT_HH
#define SBULK_SYSTEM_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "proto/trace_printer.hh"
#include "system/system.hh"
#include "trace/scenarios.hh"
#include "workload/apps.hh"

namespace sbulk
{

/** One experiment's inputs. */
struct RunConfig
{
    const AppSpec* app = nullptr;
    std::uint32_t procs = 64;
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    /**
     * Total chunks of work across all cores (fixed problem size, so
     * speedups are measured against the same work on one processor).
     */
    std::uint64_t totalChunks = 3200;
    /** Chunk size in instructions (Table 2: 2000). */
    std::uint32_t chunkInstrs = 2000;
    ProtoConfig proto{};
    SigConfig sig{};
    /** When nonzero, replaces the app model's workload RNG seed. */
    std::uint64_t seedOverride = 0;
    /** Safety stop. */
    Tick tickLimit = 4'000'000'000ull;
    /**
     * Parallel-in-run event kernel shards (SystemConfig::shards). 1 —
     * the default — keeps the byte-identical serial path; >= 2 runs the
     * sharded PDES engine (identical statistics for any shard count).
     */
    std::uint32_t shards = 1;
    /** Tile->shard policy: "" or "contiguous" (equal-size contiguous
     *  ranges, the only policy; validate() rejects anything else). It
     *  stays only because perfbench sets it. */
    std::string shardMap{};
    /** Interleaved page homing for serial runs (see SystemConfig; always
     *  on under shards >= 2). Always false: no caller sets it, and it stays
     *  only because perfbench reads it. ROADMAP item 4 (homing follows
     *  shard count) removes it. */
    bool interleavedPages = false;
    /**
     * Transport fault plan (see ROBUSTNESS.md). When enabled() the run
     * attaches a FaultTransport and arms the recovery layer; degradation
     * counters land in RunResult. Disabled plans leave the run untouched.
     */
    fault::FaultPlan faults{};

    /// @name Trace-driven workloads (see WORKLOADS.md)
    /// @{
    /**
     * Replay this access trace instead of a synthetic app (app must be
     * null). The trace's core count must equal procs; its chunkInstrs
     * and seed hints override the fields above when nonzero, and its
     * totalChunks hint applies when totalChunks is 0 (1280 when both
     * are unset).
     */
    std::string tracePath{};
    /**
     * Generate this serving scenario in memory and replay it (app and
     * tracePath must be unset). scenarioParams.cores is forced to procs.
     */
    std::string scenario{};
    atrace::ScenarioParams scenarioParams{};
    /**
     * Tee the run's per-core op streams into this trace file (synthetic
     * apps only); replaying the capture reproduces this run's statistics.
     */
    std::string recordPath{};
    /// @}

    /**
     * Check every user-settable field before a run starts: one workload
     * source, procs in 1..4096, shards in 1..procs, chunkInstrs >= 1, a
     * valid signature geometry, the shard-map policy, the scenario's
     * tenant/request ranges, and a trace's header against procs. Returns
     * the first problem as a one-line message.
     */
    std::optional<std::string> validate() const;
};

/** Everything the figures read out of one run. */
struct RunResult
{
    std::string app;
    std::uint32_t procs = 0;
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    /** Workload RNG seed the run actually used (echoed in reports). */
    std::uint64_t seed = 0;

    /** End-to-end simulated time (the denominator of speedups). */
    Tick makespan = 0;
    /** Per-core cycle breakdown summed over cores (Figures 7/8). */
    System::Breakdown breakdown;

    /** Commit statistics (Figures 9-17). */
    std::uint64_t commits = 0;
    double commitLatencyMean = 0;
    Distribution commitLatency{25, 400};
    double dirsPerCommitMean = 0;
    double writeDirsPerCommitMean = 0;
    Distribution dirsPerCommit{1, 66};
    double bottleneckRatio = 0;
    double chunkQueueLength = 0;
    std::uint64_t commitFailures = 0;
    std::uint64_t squashesTrueConflict = 0;
    std::uint64_t squashesAliasing = 0;
    std::uint64_t chunksSquashed = 0;
    std::uint64_t commitRecalls = 0;

    /** Message counts per class (Figures 18/19). */
    TrafficStats traffic;

    /** Aggregate cache behaviour (diagnostics). */
    std::uint64_t loads = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Misses = 0;

    /// @name Fault-sweep degradation (all zero without a plan)
    /// @{
    std::uint64_t faultsInjected = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t dupsDropped = 0;
    std::uint64_t watchdogFires = 0;
    std::uint64_t retryEscalations = 0;
    double recoveryLatencyMean = 0;
    /// @}

    /// @name Parallel-kernel timing (perfbench)
    /// @{
    /** Wall-clock seconds of System::run() (host time, not simulated). */
    double wallSec = 0;
    /** Per-shard utilization counters (empty under shards = 1). */
    std::vector<ShardEngine::ShardStats> shardStats;
    /** Wall-clock seconds inside the sharded window loop. */
    double shardWallSec = 0;
    /** Smallest path-closed lookahead entry of the sharded run. */
    Tick shardLookaheadMin = 0;
    /// @}

    /// @name Per-tenant serving metrics (trace/scenario runs)
    /// @{
    /** True when the run was trace- or scenario-driven. */
    bool traced = false;
    struct TenantStats
    {
        std::uint16_t tenant = 0;
        std::uint64_t commits = 0;
        std::uint64_t squashes = 0;
        /** Commit latency (request -> success), merged across cores. */
        Distribution commitLatency{5, 1000};
    };
    /** Sorted by tenant id; synthetic runs report one tenant (0). */
    std::vector<TenantStats> tenants;
    /// @}
};

/**
 * Build, run, and harvest one experiment; with @p stats, also record every
 * component's statistics into it (`sbulk-sim --stats`); with @p printer,
 * print its debug-trace categories as the run goes (`--debug-trace`). A
 * config validate() rejects ends the process via SBULK_FATAL.
 */
RunResult runExperiment(const RunConfig& cfg, StatSet* stats = nullptr,
                        TracePrinter* printer = nullptr);

/** Read the header of the trace at @p path; the reason on failure. */
std::optional<std::string> readTraceHeader(const std::string& path,
                                           atrace::TraceHeader& hdr);

/** Convenience: speedup of @p run against a one-processor reference. */
inline double
speedup(const RunResult& one_proc, const RunResult& run)
{
    return run.makespan == 0
               ? 0.0
               : double(one_proc.makespan) / double(run.makespan);
}

} // namespace sbulk

#endif // SBULK_SYSTEM_EXPERIMENT_HH
