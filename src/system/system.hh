/**
 * @file
 * The full simulated multicore (Figure 1): per-tile core + private L1/L2 +
 * directory module, a 2D-torus interconnect, and one of the four commit
 * protocols of Table 3 wired in. This is the library's main entry point.
 */

#ifndef SBULK_SYSTEM_SYSTEM_HH
#define SBULK_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "mem/page_map.hh"
#include "net/network.hh"
#include "proto/commit_protocol.hh"
#include "proto/scalablebulk/proc_ctrl.hh"
#include "sim/event_queue.hh"
#include "workload/stream.hh"

namespace sbulk
{

/** The evaluated protocols (Table 3). */
enum class ProtocolKind
{
    ScalableBulk, ///< this paper
    TCC,          ///< Scalable TCC [6]
    SEQ,          ///< SEQ-PRO from SRC [14]
    BulkSC,       ///< BulkSC [5], centralized arbiter
};

const char* protocolName(ProtocolKind kind);

/** Everything needed to build a System. */
struct SystemConfig
{
    std::uint32_t numProcs = 32;
    ProtocolKind protocol = ProtocolKind::ScalableBulk;
    MemConfig mem{};
    CoreConfig core{};
    ProtoConfig proto{};
    TorusConfig torus{};
    /** Use the contention-free network instead of the torus (tests). */
    bool directNetwork = false;
    Tick directLatency = 10;
    /**
     * Protocol-event observer wired into every core and controller: the
     * invariant oracles (check::OracleSuite), the fault layer's liveness
     * monitor, the --debug-trace printer, or an ObserverChain of them.
     * Null for plain simulation runs. Not owned.
     */
    ProtocolObserver* observer = nullptr;
    /**
     * Parallel-in-run event kernel: partition the tiles into this many
     * shards, each driven by its own worker thread under conservative
     * lookahead windows (src/sim/shard.hh; DESIGN.md). 1 — the default —
     * keeps the byte-identical single-threaded path. Requires
     * shards <= numProcs; incompatible with SchedulePolicy and delivery
     * jitter (serial-only checker tooling). End-of-run statistics are
     * identical for every shard count >= 2. Observers attached to a
     * sharded run fire concurrently from shard threads and must be
     * thread-safe (fault::LivenessMonitor and TracePrinter are; the
     * OracleSuite is not, so oracle-checked runs stay serial).
     */
    std::uint32_t shards = 1;
    /**
     * Explicit tile->shard map (size numProcs, every shard owning >= 1
     * tile). Empty — the default, and what every run uses — selects the
     * contiguous equal-size split. Tests fill it to check the lookahead
     * closure over skewed and striped regions: end-of-run statistics are
     * identical for every valid map, since the canonical event order is
     * map-independent.
     */
    std::vector<std::uint32_t> shardMap;
    /**
     * Use stateless interleaved page homing (page % nodes) instead of
     * first-touch. Forced on when shards > 1 (see FirstTouchMap); opt-in
     * for serial runs that want an apples-to-apples wall-clock baseline
     * against a sharded run of the same config.
     */
    bool interleavedPages = false;
};

/**
 * A complete simulated machine. Construct, attach one ThreadStream per
 * core, run(), then read the metrics.
 */
class System
{
  public:
    /**
     * @param cfg Machine configuration.
     * @param streams One reference stream per core (size == numProcs).
     */
    System(SystemConfig cfg,
           std::vector<std::unique_ptr<ThreadStream>> streams);
    ~System();

    /**
     * Run until every core commits its chunk budget (or @p limit ticks).
     * Panics on deadlock (event queue drained with cores unfinished).
     * @return simulated end time.
     */
    Tick run(Tick limit = kMaxTick);

    /// @name Results
    /// @{
    const CommitMetrics& metrics() const { return _metrics; }
    const TrafficStats& traffic() const { return _net->traffic(); }
    const Core& core(NodeId n) const { return *_cores[n]; }
    const Directory& directory(NodeId n) const { return *_dirs[n]; }
    const CacheHierarchy& hierarchy(NodeId n) const { return *_caches[n]; }
    std::uint32_t numProcs() const { return _cfg.numProcs; }
    EventQueue& eventQueue() { return _eq; }
    Network& network() { return *_net; }
    /** True when every core is done (see Core::done()). */
    bool allCoresDone() const;
    /**
     * True when no protocol controller holds transient state: every
     * directory CST/queue is empty and the central agent (if any) has no
     * commit in flight. The quiescence oracle's end-of-run check.
     */
    bool protocolQuiescent() const;
    /** The torus instance, or null when directNetwork was selected. */
    const TorusNetwork*
    torus() const
    {
        return dynamic_cast<const TorusNetwork*>(_net.get());
    }

    /// @name Sharded-run introspection (empty/zero under --shards 1)
    /// @{
    std::uint32_t shards() const { return _cfg.shards; }
    /** Per-shard utilization counters from the last sharded run(). */
    const std::vector<ShardEngine::ShardStats>&
    shardStats() const
    {
        return _engineStats;
    }
    /** Wall-clock seconds of the last sharded run()'s window loop. */
    double shardWallSeconds() const { return _engineWallSec; }
    /** Smallest entry of the last sharded run()'s path-closed lookahead
     *  matrix: the narrowest window step any shard can be held to. */
    Tick shardLookaheadMin() const { return _engineLookaheadMin; }
    /// @}

    /** Aggregate execution-time breakdown over all cores (Figures 7/8). */
    struct Breakdown
    {
        double useful = 0;
        double cacheMiss = 0;
        double commit = 0;
        double squash = 0;
        /** Sum of the four categories (cycles across all cores). */
        double total() const { return useful + cacheMiss + commit + squash; }
        /** Mean per-core finish tick. */
        double meanFinish = 0;
        /** Max per-core finish tick (the run's makespan). */
        Tick makespan = 0;
    };
    Breakdown breakdown() const;

    /**
     * Snapshot every component's statistics into @p set, under
     * hierarchical names ("core3.useful", "dir12.memReads", ...).
     */
    void recordStats(StatSet& set) const;
    /// @}

    /** Test hooks. */
    ProcProtocol& procProtocol(NodeId n) { return *_procProtos[n]; }
    DirProtocol& dirProtocol(NodeId n) { return *_dirProtos[n]; }

  private:
    void buildProtocol();

    /** The queue tile @p n 's components live on (its shard's, or _eq). */
    EventQueue& eqOf(NodeId n);
    /** The metrics instance tile @p n 's controllers write (per-shard
     *  journaling instance, or the aggregate in serial mode). */
    CommitMetrics& metricsOf(NodeId n);
    /** Sharded window-loop driver (run() when cfg.shards > 1). */
    Tick runSharded(Tick limit);

    SystemConfig _cfg;
    EventQueue _eq;
    std::unique_ptr<Network> _net;
    FirstTouchMap _pages;
    CommitMetrics _metrics;
    sb::LeaderPolicy _leaderPolicy;

    /// @name Parallel-in-run kernel state (unused under --shards 1)
    /// @{
    std::unique_ptr<ShardPlan> _plan;
    /** Per-tile canonical-key counters, shared by every shard queue. */
    std::vector<std::uint64_t> _tileSeq;
    std::vector<std::unique_ptr<EventQueue>> _shardQs;
    std::unique_ptr<ShardChannels> _shardChan;
    /** Per-shard journaling metrics, folded into _metrics post-run. */
    std::vector<std::unique_ptr<CommitMetrics>> _shardMetrics;
    std::vector<ShardEngine::ShardStats> _engineStats;
    double _engineWallSec = 0;
    Tick _engineLookaheadMin = 0;
    bool _shardsRan = false;
    /// @}

    std::vector<std::unique_ptr<CacheHierarchy>> _caches;
    std::vector<std::unique_ptr<Directory>> _dirs;
    std::vector<std::unique_ptr<Core>> _cores;
    /**
     * Count of leading cores known to be done. Core::done() is monotone
     * (a finished core never restarts), so allCoresDone() — called once
     * per event by run loops — only ever examines cores past this prefix
     * instead of rescanning from zero.
     */
    mutable std::size_t _doneCorePrefix = 0;
    std::vector<std::unique_ptr<ThreadStream>> _streams;
    std::vector<std::unique_ptr<ProcProtocol>> _procProtos;
    std::vector<std::unique_ptr<DirProtocol>> _dirProtos;
    /** Centralized agent (TCC TID vendor / BulkSC arbiter), when used. */
    std::unique_ptr<CentralAgent> _agent;
};

} // namespace sbulk

#endif // SBULK_SYSTEM_SYSTEM_HH
