/**
 * @file
 * The commit-protocol framework: interfaces between the core and the
 * pluggable protocols (ScalableBulk, Scalable TCC, SEQ, BulkSC), shared
 * configuration, and the metrics every protocol reports (Figures 13-17).
 */

#ifndef SBULK_PROTO_COMMIT_PROTOCOL_HH
#define SBULK_PROTO_COMMIT_PROTOCOL_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "chunk/chunk.hh"
#include "net/message.hh"
#include "net/network.hh"
#include "sig/signature.hh"
#include "sim/event_queue.hh"
#include "sim/node_set.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sbulk
{

/** Message sizes of the commit protocols (bytes). */
inline constexpr std::uint32_t kSmallCBytes = 8;
/** Carries a compressed signature pair. */
inline constexpr std::uint32_t kLargeCBytes = 64;

/**
 * Test-only protocol sabotage switches (model checking).
 *
 * The schedule-exploration checker (src/check/) must be able to prove its
 * invariant oracles can fail, so ScalableBulk's group-collision resolution
 * can be deliberately broken. Never set outside tests/tools.
 */
enum class SbBreakMode : std::uint8_t
{
    None,
    /**
     * Disable collision resolution: skip the CST compatibility check
     * (colliding groups are all admitted and all commit) and skip the
     * processor-side chunk disambiguation that backstops it (incoming
     * bulk invalidations are acked without squashing). Conflicting
     * chunks then both retire with stale reads, which the
     * serializability oracle catches.
     */
    AdmitConflicting,
    /**
     * On a collision, fail *both* groups instead of keeping the admitted
     * winner. Violates the paper's Section 3.2.3 guarantee that at least
     * one of any set of colliding groups forms (the exactly-one-winner
     * oracle sees a cycle of collision losers).
     */
    FailBothOnCollision,
};

/** Tunables shared by all protocol implementations. */
struct ProtoConfig
{
    /** Cycles a processor waits after commit_failure before retrying. */
    Tick commitRetryDelay = 50;
    /** Cycles a nacked bulk invalidation waits before re-delivery. */
    Tick invRetryDelay = 30;
    /**
     * ScalableBulk starvation threshold: after a directory sees the same
     * chunk fail MAX times it reserves itself for that chunk
     * (Section 3.2.2).
     */
    std::uint32_t starvationMax = 24;
    /**
     * Safety valve on reservations: a reservation that has not led to the
     * reserved chunk's commit within this many cycles is dropped. Without
     * it, two directories that (due to message reordering) reserve for
     * *different* overlapping chunks deadlock each other — a corner the
     * paper's "all directories see every squash" argument glosses over.
     */
    Tick starvationTimeout = 4000;
    /** Enable Optimistic Commit Initiation (Section 3.3). */
    bool oci = true;
    /**
     * Leader-priority rotation interval in cycles (0 = never rotate);
     * the long-term fairness scheme of Section 3.2.2.
     */
    Tick leaderRotationInterval = 0;
    /** BulkSC arbiter occupancy per request processed, cycles. */
    Tick arbiterServiceTime = 68;
    /** Test-only ScalableBulk sabotage knob (see SbBreakMode). */
    SbBreakMode sbBreak = SbBreakMode::None;

    /// @name Commit-retry recovery policy (src/fault/ runs; see ROBUSTNESS.md)
    /// @{
    /**
     * Use capped-exponential backoff with seeded jitter for commit
     * retries instead of the default linear ramp. Off by default: the
     * linear formula is part of the golden baselines.
     */
    bool expBackoff = false;
    /** Seed of the per-processor retry jitter (exponential policy only). */
    std::uint64_t backoffSeed = 0;
    /**
     * Per-request watchdog: if a commit attempt has no outcome after this
     * many cycles, nudge the transport layer to retransmit anything still
     * pending (TransportLayer::kick). 0 disables; only fault-injection
     * runs arm it.
     */
    Tick watchdogTimeout = 0;
    /// @}
};

/**
 * Outcome of applying a remote commit's bulk invalidation at a core
 * (cache invalidation + chunk disambiguation).
 */
struct InvOutcome
{
    /** Some local chunk's R/W signature intersected the incoming W. */
    bool squashedAny = false;
    /** The squashed chunk had already sent its commit request (OCI case:
     *  a commit recall must be issued). */
    bool squashedCommitting = false;
    /** Tag of the squashed committing chunk (valid if squashedCommitting).*/
    ChunkTag committingTag{};
    /** The squash was a true data conflict (false: signature aliasing). */
    bool wasTrueConflict = false;
};

/**
 * Services the core provides to its protocol controller.
 */
class CoreHooks
{
  public:
    virtual ~CoreHooks() = default;

    /**
     * Apply a remote chunk's bulk invalidation: drop the named lines from
     * the caches and disambiguate the incoming W signature against all
     * in-flight local chunks, squashing on intersection.
     *
     * @param exempt A local chunk that must not squash (a protocol whose
     *        ordering already placed it before the invalidating chunk,
     *        e.g. a BulkSC chunk already granted by the arbiter).
     */
    virtual InvOutcome applyBulkInv(const Signature& w,
                                    const std::vector<Addr>& lines,
                                    ChunkTag committer,
                                    ChunkTag exempt = ChunkTag{}) = 0;

    /**
     * Exact-line variant for protocols without signatures (Scalable TCC):
     * same cache invalidation, but disambiguation compares the line list
     * against the chunks' exact read/write sets (no aliasing).
     */
    virtual InvOutcome applyLineInv(const std::vector<Addr>& lines,
                                    ChunkTag committer,
                                    ChunkTag exempt = ChunkTag{}) = 0;

    /** The chunk's commit completed; the core retires it. */
    virtual void chunkCommitted(ChunkTag tag) = 0;

    /**
     * The protocol asks the core to squash the chunk (e.g. a conservative
     * protocol decided to kill the loser instead of retrying).
     */
    virtual void chunkMustSquash(ChunkTag tag) = 0;
};

/**
 * Tracks which in-flight commits are blocked behind older commits at one
 * or more directories (TCC's TID ordering, SEQ's occupy queues). The
 * number of distinct blocked chunks is the paper's Chunk Queue Length.
 */
class BlockedChunkTracker
{
  public:
    /** One more directory blocks @p key (keys are hashed CommitIds). */
    void
    block(std::size_t key)
    {
        ++_counts[key];
    }

    /** One directory unblocked @p key. */
    void
    unblock(std::size_t key)
    {
        auto it = _counts.find(key);
        if (it == _counts.end())
            return;
        if (--it->second <= 0)
            _counts.erase(it);
    }

    /** Remove @p key entirely (its commit finished or aborted). */
    void clear(std::size_t key) { _counts.erase(key); }

    /** Number of distinct chunks blocked somewhere. */
    std::int32_t distinct() const { return std::int32_t(_counts.size()); }

  private:
    std::unordered_map<std::size_t, std::int32_t> _counts;
};

/**
 * Commit/serialization statistics, shared per System.
 *
 * Gauges (forming/committing/queued) are maintained by the protocols;
 * sampling happens on every group-formation-like event, mirroring the
 * paper's methodology (Section 6.4).
 *
 * Sharded PDES mode: the gauges are *global* machine state (the number of
 * chunks forming anywhere), so per-shard instances cannot maintain them
 * directly without the result depending on the shard count. Instead each
 * shard's instance journals its gauge operations tagged with the canonical
 * event order token (tick, event key, per-event sub-counter); after the
 * run the journals are merged, sorted — the canonical order is a pure
 * function of the simulated machine — and replayed into the aggregate
 * instance, reproducing the exact sample sequence of a one-queue run for
 * every shard count. Counters and histograms are order-insensitive and
 * merge additively. Serial mode never journals: each mutator applies its
 * op in place through the same switch (apply) the replay uses.
 */
class CommitMetrics
{
  public:
    /** One gauge mutation (journaled in sharded mode). */
    enum class GaugeOp : std::uint8_t
    {
        Forming,           ///< forming += signed arg
        Committing,        ///< committing += signed arg
        Inflight,          ///< inflight += signed arg
        Block,             ///< blocked.block(arg)
        Unblock,           ///< blocked.unblock(arg)
        ClearBlocked,      ///< blocked.clear(arg)
        SampleGroupFormed, ///< sampleOnGroupFormed()
        SampleQueue,       ///< sampleQueueProtocols()
    };

    /** A gauge op at its canonical position in the event order. */
    struct JournalRec
    {
        Tick when = 0;
        std::uint64_t key = 0;
        std::uint32_t sub = 0;
        GaugeOp op{};
        std::uint64_t arg = 0;
    };
    /// Distribution of commit latency, cycles (Figure 13).
    Distribution commitLatency{25, 400};
    /// Directories accessed per committed chunk (Figures 9-12).
    Distribution dirsPerCommit{1, 66};
    /// ... of which directories holding writes (Write Group).
    Distribution writeDirsPerCommit{1, 66};
    /// Bottleneck ratio samples (Figures 14/15).
    Average bottleneckRatio;
    /// Chunk queue length samples (Figures 16/17).
    Average chunkQueueLength;

    Scalar commits;
    Scalar commitFailures;
    Scalar commitRetries;
    Scalar squashesTrueConflict;
    Scalar squashesAliasing;
    Scalar commitRecalls;
    Scalar starvationReservations;
    Scalar readNacksAtDirs;
    /// @name Recovery-policy observability (fault-injection runs)
    /// @{
    /** Watchdog expiries that nudged the transport (stuck attempts). */
    Scalar watchdogFires;
    /** Retries whose backoff was clamped by the escalation path. */
    Scalar retryEscalations;
    /// @}

    /// @name Gauges
    /// @{
    /** Chunks whose groups are forming (commit requested, not yet formed).*/
    std::int32_t forming = 0;
    /** Chunks with formed groups still completing their commit. */
    std::int32_t committing = 0;
    /** Completed chunks queued behind others, waiting to start commit. */
    std::int32_t queued = 0;
    /** In-flight commits (TCC/SEQ use this + blocked to derive gauges). */
    std::int32_t inflight = 0;
    /** Chunks blocked behind older commits at some directory (TCC/SEQ). */
    BlockedChunkTracker blocked;

    /**
     * TCC/SEQ helper: derive forming/committing/queued from the blocked
     * tracker and the in-flight count, then sample. Call at each
     * commit-processing-start event (the "group formed" analog).
     */
    void
    sampleQueueProtocols()
    {
        queued = blocked.distinct();
        forming = queued;
        committing = inflight - forming;
        if (committing < 1)
            committing = 1;
        sampleOnGroupFormed();
    }
    /// @}

    /** Take the per-formation samples (call when a group forms). */
    void
    sampleOnGroupFormed()
    {
        const double denom = committing > 0 ? double(committing) : 1.0;
        bottleneckRatio.sample(double(forming < 0 ? 0 : forming) / denom);
        chunkQueueLength.sample(double(queued < 0 ? 0 : queued));
    }

    /** Record a successful commit's footprint and latency. */
    void
    recordCommit(const Chunk& chunk, Tick success_tick)
    {
        commits.inc();
        commitLatency.sample(success_tick - chunk.commitRequested);
        dirsPerCommit.sample(chunk.gVec().count());
        writeDirsPerCommit.sample(chunk.dirsWritten().count());
    }

    /// @name Journaling gauge mutators (the protocols' only gauge writes)
    /// @{
    /**
     * Route gauge mutations into a journal ordered by @p eq 's canonical
     * event keys instead of mutating in place (sharded mode). Null — the
     * default — restores direct mutation.
     */
    void journalTo(EventQueue* eq) { _journalEq = eq; }

    // Signed deltas travel sign-extended; apply() truncates them back.
    void addForming(std::int32_t d)
    {
        gauge(GaugeOp::Forming, std::uint64_t(d));
    }
    void addCommitting(std::int32_t d)
    {
        gauge(GaugeOp::Committing, std::uint64_t(d));
    }
    void addInflight(std::int32_t d)
    {
        gauge(GaugeOp::Inflight, std::uint64_t(d));
    }
    void blockChunk(std::size_t key) { gauge(GaugeOp::Block, key); }
    void unblockChunk(std::size_t key) { gauge(GaugeOp::Unblock, key); }
    void clearChunk(std::size_t key) { gauge(GaugeOp::ClearBlocked, key); }
    /** Group-formation sample point (journals in sharded mode). */
    void sampleGroupFormedEvent() { gauge(GaugeOp::SampleGroupFormed, 0); }
    /** TCC/SEQ commit-processing-start sample point. */
    void sampleQueueEvent() { gauge(GaugeOp::SampleQueue, 0); }
    /// @}

    /// @name Sharded-run aggregation
    /// @{
    /** Fold @p o 's order-insensitive counters and histograms into this. */
    void
    mergeCounters(const CommitMetrics& o)
    {
        commitLatency.merge(o.commitLatency);
        dirsPerCommit.merge(o.dirsPerCommit);
        writeDirsPerCommit.merge(o.writeDirsPerCommit);
        bottleneckRatio.merge(o.bottleneckRatio);
        chunkQueueLength.merge(o.chunkQueueLength);
        commits.inc(o.commits.value());
        commitFailures.inc(o.commitFailures.value());
        commitRetries.inc(o.commitRetries.value());
        squashesTrueConflict.inc(o.squashesTrueConflict.value());
        squashesAliasing.inc(o.squashesAliasing.value());
        commitRecalls.inc(o.commitRecalls.value());
        starvationReservations.inc(o.starvationReservations.value());
        readNacksAtDirs.inc(o.readNacksAtDirs.value());
        watchdogFires.inc(o.watchdogFires.value());
        retryEscalations.inc(o.retryEscalations.value());
    }

    /** Take (move out) the journaled gauge ops of a shard instance. */
    std::vector<JournalRec> takeJournal() { return std::move(_journal); }

    /**
     * Replay a merged journal (sort first — (when, key, sub) is globally
     * unique) through apply(), reproducing the serial gauge/sample
     * sequence.
     */
    void
    replayJournal(std::vector<JournalRec> recs)
    {
        std::sort(recs.begin(), recs.end(),
                  [](const JournalRec& a, const JournalRec& b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.key != b.key)
                          return a.key < b.key;
                      return a.sub < b.sub;
                  });
        for (const JournalRec& r : recs)
            apply(r.op, r.arg);
    }
    /// @}

  private:
    /** Journal @p op (sharded mode) or apply it in place (serial). */
    void
    gauge(GaugeOp op, std::uint64_t arg)
    {
        if (!_journalEq) {
            apply(op, arg);
            return;
        }
        _journal.push_back(JournalRec{_journalEq->now(),
                                      _journalEq->currentKey(),
                                      _journalEq->nextJournalSub(), op,
                                      arg});
    }

    /** The one gauge mutation switch: direct calls and replay share it. */
    void
    apply(GaugeOp op, std::uint64_t arg)
    {
        switch (op) {
          case GaugeOp::Forming: forming += std::int32_t(arg); break;
          case GaugeOp::Committing: committing += std::int32_t(arg); break;
          case GaugeOp::Inflight: inflight += std::int32_t(arg); break;
          case GaugeOp::Block: blocked.block(arg); break;
          case GaugeOp::Unblock: blocked.unblock(arg); break;
          case GaugeOp::ClearBlocked: blocked.clear(arg); break;
          case GaugeOp::SampleGroupFormed: sampleOnGroupFormed(); break;
          case GaugeOp::SampleQueue: sampleQueueProtocols(); break;
        }
    }

    /** Canonical-order token source (null = serial direct mutation). */
    EventQueue* _journalEq = nullptr;
    std::vector<JournalRec> _journal;
};

/**
 * Identity of one commit *attempt*: retries after commit_failure reuse the
 * chunk tag but bump the attempt, so late messages from a dead attempt can
 * never be confused with the current one.
 */
struct CommitId
{
    ChunkTag tag{};
    std::uint32_t attempt = 0;

    bool operator==(const CommitId&) const = default;
};

/** Why a ScalableBulk group was failed at a directory module. */
enum class GroupFailReason : std::uint8_t
{
    Collision,   ///< incompatible with an admitted group (Section 3.2.1)
    Recall,      ///< commit recall for a squashed optimistic committer
    Reservation, ///< bounced by a starvation reservation (Section 3.2.2)
};

/** Why a core squashed a chunk. */
enum class SquashReason : std::uint8_t
{
    Conflict,     ///< disambiguation hit against a remote commit's W
    Cascade,      ///< an older same-core chunk squashed beneath it
    ProtocolKill, ///< the protocol asked for the squash (chunkMustSquash)
};

/**
 * Observer of protocol-level events: the one channel through which a run
 * is watched.
 *
 * The invariant oracles (src/check/), the fault layer's liveness monitor
 * and the --debug-trace printer (proto/trace_printer.hh) all derive what
 * they report from these callbacks; ObserverChain attaches several to the
 * one SystemConfig::observer slot. Hooks fire synchronously from the
 * core/protocol code; observers must not mutate simulator state. Every hook has an empty default so observers implement
 * only what they need; a null observer costs one pointer test per event.
 *
 * References passed to hooks (chunks, signatures, line lists) are only
 * valid for the duration of the call.
 */
class ProtocolObserver
{
  public:
    virtual ~ProtocolObserver() = default;

    /// @name Processor-side commit lifecycle (all protocols)
    /// @{
    /** A commit request for @p id left the processor. */
    virtual void
    onCommitRequested(NodeId proc, const CommitId& id, const Chunk& chunk)
    {
        (void)proc; (void)id; (void)chunk;
    }
    /**
     * The protocol irrevocably ordered @p id relative to all other
     * commits (e.g. the BulkSC arbiter grant): the commit can no longer
     * fail or abort, and every commit serialized later is logically
     * after it even if its completion (onChunkCommitted) lands earlier
     * in wall-clock time. Protocols whose serialization point coincides
     * with completion need not emit this.
     */
    virtual void
    onCommitSerialized(NodeId proc, const CommitId& id)
    {
        (void)proc; (void)id;
    }
    /** The processor consumed a commit success for @p id. */
    virtual void
    onCommitSuccess(NodeId proc, const CommitId& id)
    {
        (void)proc; (void)id;
    }
    /** The processor consumed a commit failure for @p id (will retry). */
    virtual void
    onCommitFailure(NodeId proc, const CommitId& id)
    {
        (void)proc; (void)id;
    }
    /**
     * The commit watchdog found @p id still without an outcome and kicked
     * the transport to retransmit (fault-recovery runs only).
     */
    virtual void
    onWatchdogFired(NodeId proc, const CommitId& id)
    {
        (void)proc; (void)id;
    }
    /** The in-flight commit @p id died with its chunk (squash/abort). */
    virtual void
    onCommitAborted(NodeId proc, const CommitId& id)
    {
        (void)proc; (void)id;
    }
    /// @}

    /// @name Core-side chunk lifecycle (all protocols)
    /// @{
    /** The executing chunk observed @p line (value as of this tick). */
    virtual void
    onChunkRead(NodeId proc, const ChunkTag& tag, Addr line)
    {
        (void)proc; (void)tag; (void)line;
    }
    /** @p tag retired: its writes became globally visible at @p now. */
    virtual void
    onChunkCommitted(NodeId proc, const ChunkTag& tag,
                     const std::vector<Addr>& write_lines, Tick now)
    {
        (void)proc; (void)tag; (void)write_lines; (void)now;
    }
    /**
     * The home directory @p dir made @p id's write to @p line visible
     * (Directory::commitLine): subsequent fetches return the new data and
     * the old sharer set was captured for invalidation. This — not chunk
     * retirement — is the instant the write takes effect for readers.
     */
    virtual void
    onLineCommitted(NodeId dir, Addr line, const CommitId& id)
    {
        (void)dir; (void)line; (void)id;
    }
    /**
     * @p victim was squashed. For SquashReason::Conflict, @p commit_w /
     * @p commit_lines carry the invalidating commit's write signature and
     * exact lines (commit_w is null for exact-line protocols) so oracles
     * can independently re-check the justification; both are null for
     * Cascade and ProtocolKill.
     */
    virtual void
    onChunkSquashed(NodeId proc, const Chunk& victim, SquashReason why,
                    const ChunkTag& committer, const Signature* commit_w,
                    const std::vector<Addr>* commit_lines)
    {
        (void)proc; (void)victim; (void)why; (void)committer;
        (void)commit_w; (void)commit_lines;
    }
    /// @}

    /// @name ScalableBulk group formation (directory side)
    /// @{
    /** The leader module @p dir confirmed @p id's group (g returned). */
    virtual void
    onGroupFormed(NodeId dir, const CommitId& id, const NodeSet& g_vec)
    {
        (void)dir; (void)id; (void)g_vec;
    }
    /**
     * Module @p dir failed @p id's group. For Collision, @p winner is the
     * admitted group it lost to (invalid CommitId otherwise).
     */
    virtual void
    onGroupFailed(NodeId dir, const CommitId& id, GroupFailReason why,
                  const CommitId& winner)
    {
        (void)dir; (void)id; (void)why; (void)winner;
    }
    /// @}
};

/**
 * Fan-out of one observer slot to several observers (the checker attaches
 * its invariant oracles, the fault layer's liveness monitor and the trace
 * printer together).
 * Hooks forward in add() order; entries are not owned.
 */
class ObserverChain : public ProtocolObserver
{
  public:
    ObserverChain() = default;
    ObserverChain(std::initializer_list<ProtocolObserver*> list)
    {
        for (ProtocolObserver* o : list)
            add(o);
    }

    void
    add(ProtocolObserver* o)
    {
        if (o)
            _list.push_back(o);
    }

    void
    onCommitRequested(NodeId proc, const CommitId& id,
                      const Chunk& chunk) override
    {
        for (auto* o : _list)
            o->onCommitRequested(proc, id, chunk);
    }
    void
    onCommitSerialized(NodeId proc, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onCommitSerialized(proc, id);
    }
    void
    onCommitSuccess(NodeId proc, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onCommitSuccess(proc, id);
    }
    void
    onCommitFailure(NodeId proc, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onCommitFailure(proc, id);
    }
    void
    onWatchdogFired(NodeId proc, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onWatchdogFired(proc, id);
    }
    void
    onCommitAborted(NodeId proc, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onCommitAborted(proc, id);
    }
    void
    onChunkRead(NodeId proc, const ChunkTag& tag, Addr line) override
    {
        for (auto* o : _list)
            o->onChunkRead(proc, tag, line);
    }
    void
    onChunkCommitted(NodeId proc, const ChunkTag& tag,
                     const std::vector<Addr>& write_lines, Tick now) override
    {
        for (auto* o : _list)
            o->onChunkCommitted(proc, tag, write_lines, now);
    }
    void
    onLineCommitted(NodeId dir, Addr line, const CommitId& id) override
    {
        for (auto* o : _list)
            o->onLineCommitted(dir, line, id);
    }
    void
    onChunkSquashed(NodeId proc, const Chunk& victim, SquashReason why,
                    const ChunkTag& committer, const Signature* commit_w,
                    const std::vector<Addr>* commit_lines) override
    {
        for (auto* o : _list)
            o->onChunkSquashed(proc, victim, why, committer, commit_w,
                               commit_lines);
    }
    void
    onGroupFormed(NodeId dir, const CommitId& id,
                  const NodeSet& g_vec) override
    {
        for (auto* o : _list)
            o->onGroupFormed(dir, id, g_vec);
    }
    void
    onGroupFailed(NodeId dir, const CommitId& id, GroupFailReason why,
                  const CommitId& winner) override
    {
        for (auto* o : _list)
            o->onGroupFailed(dir, id, why, winner);
    }

  private:
    std::vector<ProtocolObserver*> _list;
};

/**
 * Per-core protocol controller: turns completed chunks into commit
 * transactions and reacts to protocol messages addressed to the processor.
 *
 * Retry-on-failure policy lives inside the protocol; the core only sees
 * chunkCommitted() or a squash.
 */
class ProcProtocol
{
  public:
    virtual ~ProcProtocol() = default;

    /**
     * Begin committing @p chunk (execution is complete). The protocol
     * may keep a reference until the chunk commits or squashes.
     */
    virtual void startCommit(Chunk& chunk) = 0;

    /**
     * The core squashed this chunk (via bulk-inv disambiguation) while its
     * commit was in flight; the protocol cleans up (OCI: sends the recall).
     */
    virtual void abortCommit(ChunkTag tag) = 0;

    /** Protocol messages delivered to Port::Proc with kind >= base. */
    virtual void handleMessage(MessagePtr msg) = 0;
};

/**
 * Per-tile directory-side protocol controller.
 */
class DirProtocol
{
  public:
    virtual ~DirProtocol() = default;

    /** Protocol messages delivered to Port::Dir with kind >= base. */
    virtual void handleMessage(MessagePtr msg) = 0;

    /**
     * Read gate (Section 3.1): true if a load to @p line must be nacked
     * because the line is covered by a committing chunk's W signature.
     */
    virtual bool loadBlocked(Addr line) const = 0;

    /**
     * True when the module holds no in-flight commit state (empty CST /
     * queues / reservations). At the end of a completed run every module
     * must be quiescent — the checker's leak/stuck-group oracle.
     */
    virtual bool quiescent() const { return true; }
};

/** Everything a protocol controller needs from its environment. */
struct ProtoContext
{
    EventQueue& eq;
    Network& net;
    CommitMetrics& metrics;
    ProtoConfig cfg;
    /** Protocol-event observer (null for plain simulation runs). */
    ProtocolObserver* observer = nullptr;
};

/**
 * A centralized protocol agent living on one tile: BulkSC's arbiter or
 * Scalable TCC's TID vendor. Receives Port::Agent messages.
 */
class CentralAgent
{
  public:
    virtual ~CentralAgent() = default;
    virtual void handleMessage(MessagePtr msg) = 0;
    /** The tile this agent lives on. */
    virtual NodeId nodeId() const = 0;
    /** See DirProtocol::quiescent(). */
    virtual bool quiescent() const { return true; }
};

} // namespace sbulk

// Hash support so CommitId can key the Chunk State Tables.
template <>
struct std::hash<sbulk::CommitId>
{
    std::size_t
    operator()(const sbulk::CommitId& id) const noexcept
    {
        std::size_t h = std::hash<sbulk::ChunkTag>{}(id.tag);
        return h ^ (std::size_t(id.attempt) * 0x9e3779b97f4a7c15ull);
    }
};

#endif // SBULK_PROTO_COMMIT_PROTOCOL_HH
