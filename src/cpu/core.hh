/**
 * @file
 * The processor model: a 1-IPC in-order core executing the instruction
 * stream as back-to-back chunks (Table 2: 2000 instructions, up to two
 * in-flight chunks — one committing while the next executes).
 *
 * The core owns its chunks, charges every cycle to one of the paper's four
 * execution-time categories (Useful / Cache Miss / Commit / Squash), applies
 * bulk invalidations and chunk disambiguation on behalf of the protocol,
 * and replays squashed chunks from their operation logs.
 */

#ifndef SBULK_CPU_CORE_HH
#define SBULK_CPU_CORE_HH

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "chunk/chunk.hh"
#include "mem/hierarchy.hh"
#include "proto/commit_protocol.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/stream.hh"

namespace sbulk
{

/** Per-core execution parameters. */
struct CoreConfig
{
    /** Target dynamic chunk size, instructions (Table 2: 2000). */
    std::uint32_t chunkInstrs = 2000;
    /** Signature geometry for each chunk's R/W signatures. */
    SigConfig sigCfg{};
    /** Chunks to commit before this core is done. */
    std::uint64_t chunksToRun = 100;
    /** Delay before retrying a store that overflowed an empty chunk. */
    Tick overflowRetryDelay = 40;
    /** Tick at which this core begins executing. Real programs don't
     *  release all threads on the same cycle; the stagger keeps commit
     *  arrivals from synchronizing into collision storms. */
    Tick startDelay = 0;
};

/**
 * One core: executes chunks from its ThreadStream and drives the commit
 * protocol. Implements the CoreHooks services the protocol needs.
 */
class Core : public CoreHooks
{
  public:
    Core(NodeId id, EventQueue& eq, CacheHierarchy& caches, CoreConfig cfg);

    /** Wire the protocol controller (must precede start()). */
    void setProtocol(ProcProtocol* proto) { _proto = proto; }
    /** Wire the instruction stream (must precede start()). */
    void setStream(ThreadStream* stream) { _stream = stream; }
    /** Attach the (optional) protocol-event observer. */
    void setObserver(ProtocolObserver* observer) { _observer = observer; }

    /** Begin execution at the current tick. */
    void start();

    NodeId nodeId() const { return _id; }
    /** True once the chunk budget has committed and nothing is in flight.*/
    bool done() const { return _finished; }

    /// @name CoreHooks
    /// @{
    InvOutcome applyBulkInv(const Signature& w,
                            const std::vector<Addr>& lines,
                            ChunkTag committer,
                            ChunkTag exempt = ChunkTag{}) override;
    InvOutcome applyLineInv(const std::vector<Addr>& lines,
                            ChunkTag committer,
                            ChunkTag exempt = ChunkTag{}) override;
    void chunkCommitted(ChunkTag tag) override;
    void chunkMustSquash(ChunkTag tag) override;
    /// @}

    /** Execution-time breakdown (the paper's Figure 7/8 categories). */
    struct Stats
    {
        Scalar usefulCycles;
        Scalar missStallCycles;
        Scalar commitStallCycles;
        Scalar squashWasteCycles;
        Scalar chunksCommitted;
        Scalar chunksSquashed;
        Scalar chunkOverflows;
        /** Tick at which the final chunk committed. */
        Tick finishTick = 0;
    };
    const Stats& stats() const { return _stats; }

    /** Per-tenant commit accounting (populated by trace-driven runs;
     *  synthetic workloads put everything under tenant 0). */
    struct TenantAccum
    {
        std::uint64_t commits = 0;
        std::uint64_t squashes = 0;
        /** Commit latency (commit request -> success), cycles. */
        Distribution commitLatency{5, 1000};
    };
    /** Ordered by tenant id so reports are deterministic. */
    const std::map<std::uint16_t, TenantAccum>&
    tenantStats() const
    {
        return _tenants;
    }

    /** Number of in-flight (uncommitted) chunks — test hook. */
    std::size_t activeChunks() const { return _chunks.size(); }

  private:
    /** The chunk currently executing (youngest, in Executing state). */
    Chunk* executingChunk();
    /** The oldest in-flight chunk. */
    Chunk* oldestChunk();

    /** Create and begin the next chunk, if budget and slots allow. */
    void beginNextChunk();
    /** Schedule consumption of the next operation of the executing chunk.*/
    void scheduleNextOp(Tick delay);
    /** Consume one operation (issue the access). */
    void executeOp();
    /** Fetch the next op: replay log first, then the live stream. */
    MemOp nextOp(Chunk& chunk);
    /** Execution of the current chunk finished: hand it to the protocol. */
    void completeChunk();
    /** Ask the protocol to commit the oldest chunk if it is ready. */
    void maybeRequestCommit();
    /**
     * Squash @p first_idx and every younger chunk; restart execution.
     * @p why / @p committer / @p commit_w / @p commit_lines describe the
     * triggering event for the observer (nulls outside Conflict squashes).
     */
    void squashFrom(std::size_t first_idx, SquashReason why,
                    const ChunkTag& committer = ChunkTag{},
                    const Signature* commit_w = nullptr,
                    const std::vector<Addr>* commit_lines = nullptr);
    /** Core went idle waiting for a commit; note when it started. */
    void enterCommitStall();
    /** Leave the commit stall (a commit completed). */
    void leaveCommitStall();

    NodeId _id;
    EventQueue& _eq;
    CacheHierarchy& _caches;
    CoreConfig _cfg;
    ProcProtocol* _proto = nullptr;
    ThreadStream* _stream = nullptr;
    ProtocolObserver* _observer = nullptr;

    /** In-flight chunks, oldest first. Size <= 2. */
    std::deque<std::unique_ptr<Chunk>> _chunks;
    /** Instructions consumed by the executing chunk. */
    std::uint32_t _instrsInChunk = 0;
    /** Replay cursor into the executing chunk's op log. */
    std::size_t _replayIdx = 0;
    /** Op pushed back by an overflow truncation, owed to the next chunk. */
    std::optional<MemOp> _carryOp;
    /** Guards stale miss-completion callbacks across squashes. */
    std::uint64_t _epoch = 0;
    /** Next chunk-local sequence number for tags. */
    std::uint64_t _nextSeq = 1;
    std::uint64_t _chunksStarted = 0;
    bool _started = false;
    bool _finished = false;
    /** Tick the core went idle in a commit stall; kMaxTick if not. */
    Tick _stallStart = kMaxTick;
    /** Slot (0/1) to assign the next chunk. */
    unsigned _nextSlot = 0;

    Stats _stats;
    std::map<std::uint16_t, TenantAccum> _tenants;
};

} // namespace sbulk

#endif // SBULK_CPU_CORE_HH
