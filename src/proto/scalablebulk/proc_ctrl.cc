#include "proto/scalablebulk/proc_ctrl.hh"

#include <algorithm>

namespace sbulk
{
namespace sb
{

std::vector<NodeId>
LeaderPolicy::order(const NodeSet& g_vec, Tick now) const
{
    // Baseline: ascending module id (leader = lowest). With rotation, the
    // priority origin moves every interval (Section 3.2.2), giving
    // long-term fairness to processors near high-numbered modules.
    std::uint32_t offset = 0;
    if (_interval > 0)
        offset = std::uint32_t((now / _interval) % _numNodes);

    std::vector<NodeId> members = g_vec.toVector();
    std::sort(members.begin(), members.end(),
              [this, offset](NodeId a, NodeId b) {
                  return (a + _numNodes - offset) % _numNodes <
                         (b + _numNodes - offset) % _numNodes;
              });
    return members;
}

SbProcCtrl::SbProcCtrl(NodeId self, ProtoContext ctx,
                       const LeaderPolicy& policy)
    : _self(self), _ctx(ctx), _policy(policy),
      _retryRng(ctx.cfg.backoffSeed + self * 0x9e3779b97f4a7c15ull)
{}

void
SbProcCtrl::startCommit(Chunk& chunk)
{
    SBULK_ASSERT(_chunk == nullptr,
                 "core %u started a commit while one is in flight", _self);
    _chunk = &chunk;

    if (chunk.gVec().empty()) {
        // A chunk with no memory operations commits trivially.
        Chunk* c = _chunk;
        _chunk = nullptr;
        _ctx.eq.scheduleIn(1, [this, c] {
            _ctx.metrics.recordCommit(*c, _ctx.eq.now());
            _core->chunkCommitted(c->tag());
        });
        return;
    }
    sendRequest();
}

void
SbProcCtrl::sendRequest()
{
    Chunk& chunk = *_chunk;
    ++chunk.commitAttempts;
    _current = CommitId{chunk.tag(), chunk.commitAttempts};
    _currentGVec = chunk.gVec();
    _awaitingOutcome = true;

    const std::vector<NodeId> order =
        _policy.order(_currentGVec, _ctx.eq.now());
    const std::vector<Addr> all_writes = chunk.writeLines();
    if (_ctx.observer)
        _ctx.observer->onCommitRequested(_self, _current, chunk);

    for (NodeId member : order) {
        std::vector<Addr> writes_here;
        if (auto it = chunk.writesByHome().find(member);
            it != chunk.writesByHome().end()) {
            writes_here = it->second;
        }
        _ctx.net.send(std::make_unique<CommitRequestMsg>(
            _self, member, _current, chunk.rSig(), chunk.wSig(),
            _currentGVec, order, std::move(writes_here), all_writes));
    }
    if (_ctx.cfg.watchdogTimeout)
        armWatchdog();
}

void
SbProcCtrl::abortCommit(ChunkTag tag)
{
    if (_chunk && _current.tag == tag) {
        _aborted = true;
        _abortedId = _current;
        _chunk = nullptr;
        _awaitingOutcome = false;
        if (_ctx.observer)
            _ctx.observer->onCommitAborted(_self, _abortedId);
    }
}

void
SbProcCtrl::handleMessage(MessagePtr msg)
{
    sbProcDispatch().run(
        *this, [this] { return std::uint8_t(procState()); },
        std::move(msg));
}

void
SbProcCtrl::onCommitSuccess(MessagePtr mp)
{
    const auto& msg = static_cast<const CommitSuccessMsg&>(*mp);
    if (_aborted && msg.id == _abortedId) {
        // OCI corner: the chunk was squashed by an *aliased* invalidation
        // from a group sharing no directory with ours, so our group formed
        // anyway. The processor discards the outcome (the chunk re-executes
        // and commits again under a fresh tag).
        _aborted = false;
        return;
    }
    if (!_chunk || msg.id != _current)
        return; // stale attempt
    _awaitingOutcome = false;
    if (_ctx.observer)
        _ctx.observer->onCommitSuccess(_self, msg.id);
    Chunk* chunk = _chunk;
    _chunk = nullptr;
    _ctx.metrics.recordCommit(*chunk, _ctx.eq.now());
    _core->chunkCommitted(chunk->tag());
}

void
SbProcCtrl::onCommitFailure(MessagePtr mp)
{
    const auto& msg = static_cast<const CommitFailureMsg&>(*mp);
    if (_aborted && msg.id == _abortedId) {
        // The recall did its job; nothing to retry (Section 3.3).
        _aborted = false;
        return;
    }
    if (!_chunk || msg.id != _current)
        return; // stale attempt
    _awaitingOutcome = false;
    if (_ctx.observer)
        _ctx.observer->onCommitFailure(_self, msg.id);
    _ctx.metrics.commitFailures.inc();
    _ctx.metrics.commitRetries.inc();
    const CommitId failed = _current;
    _ctx.eq.scheduleIn(retryDelay(), [this, failed] {
        if (_chunk && _current == failed)
            sendRequest();
    });
}

Tick
SbProcCtrl::retryDelay()
{
    const std::uint32_t attempts = _chunk->commitAttempts;
    if (!_ctx.cfg.expBackoff) {
        // Wait a while, then retry (Section 3.2). Linear backoff drains
        // collision storms; the id-based skew avoids lockstep retries.
        // Capped: the ramp used to grow without bound, so a chunk nacked
        // by a long collision storm could end up waiting longer than the
        // storm itself.
        const Tick factor = std::min<Tick>(attempts, 20);
        return _ctx.cfg.commitRetryDelay * factor + (_self % 16);
    }
    // Capped exponential backoff with seeded jitter (fault-injection
    // runs): doubles per failure up to the cap, drawn uniformly from
    // [cap/2, cap] to decorrelate colliding retriers.
    constexpr Tick kBackoffCap = 2000;
    constexpr std::uint32_t kEscalateAfter = 8;
    if (attempts >= kEscalateAfter) {
        // Starvation-fairness escalation: a chunk this unlucky stops
        // backing off and hammers at the base period, so the directory's
        // starvation reservation (Section 3.2.2) — which latches on
        // observed failures — gets the steady stream of attempts it
        // needs to fence out the competition.
        _ctx.metrics.retryEscalations.inc();
        return _ctx.cfg.commitRetryDelay + Tick(_retryRng.below(16));
    }
    const Tick ceil = std::min<Tick>(
        _ctx.cfg.commitRetryDelay << std::min<std::uint32_t>(attempts, 10),
        kBackoffCap);
    return ceil / 2 + Tick(_retryRng.below(ceil / 2 + 1));
}

void
SbProcCtrl::armWatchdog()
{
    const CommitId guarded = _current;
    _ctx.eq.scheduleIn(_ctx.cfg.watchdogTimeout, [this, guarded] {
        if (!_chunk || !_awaitingOutcome || _current != guarded)
            return; // the attempt resolved; the watchdog dies with it
        _ctx.metrics.watchdogFires.inc();
        if (_ctx.observer)
            _ctx.observer->onWatchdogFired(_self, guarded);
        // Protocol-level re-request would spawn zombie group state at the
        // directories; instead nudge the recovery transport to retransmit
        // anything of ours still unacked (same sequence numbers, so the
        // receivers dedup — safe even on a false alarm).
        if (TransportLayer* t = _ctx.net.transport())
            t->kick(_self);
        armWatchdog();
    });
}

void
SbProcCtrl::onBulkInv(MessagePtr msg)
{
    auto& inv = static_cast<BulkInvMsg&>(*msg);

    if (!_ctx.cfg.oci && _chunk != nullptr && _awaitingOutcome) {
        // Conservative commit initiation (the BulkSC behaviour the paper
        // improves on, kept as an ablation): bounce the W until our own
        // commit outcome arrives (Figure 4(c)).
        _ctx.net.send(std::make_unique<BulkInvNackMsg>(_self, inv.leader,
                                                       inv.id));
        return;
    }

    if (_ctx.cfg.sbBreak == SbBreakMode::AdmitConflicting) {
        // Sabotage (see SbBreakMode): collision resolution is off, so the
        // disambiguation backstop goes too — ack without squashing.
        _ctx.net.send(std::make_unique<BulkInvAckMsg>(_self, inv.leader,
                                                      inv.id, Recall{}));
        return;
    }

    const InvOutcome outcome =
        _core->applyBulkInv(inv.wSig, inv.lines, inv.id.tag);

    if (outcome.squashedAny) {
        if (outcome.wasTrueConflict)
            _ctx.metrics.squashesTrueConflict.inc();
        else
            _ctx.metrics.squashesAliasing.inc();
    }

    Recall recall;
    if (outcome.squashedCommitting && _chunk &&
        outcome.committingTag == _current.tag) {
        // Our optimistically-initiated commit is dead: squash locally and
        // piggy-back a commit recall on the ack (Figure 4(d)).
        recall.valid = true;
        recall.id = _current;
        recall.gVec = _currentGVec;
        _aborted = true;
        _abortedId = _current;
        _chunk = nullptr;
        if (_ctx.observer)
            _ctx.observer->onCommitAborted(_self, _abortedId);
    }
    _ctx.net.send(std::make_unique<BulkInvAckMsg>(_self, inv.leader, inv.id,
                                                  recall));
}

/*
 * The processor controller's declared state machine. Every cell keeps a
 * handler (outcome messages for stale attempts and OCI-aborted chunks are
 * absorbed by in-handler id guards); bulk invalidations are consumed in
 * every state — that is Optimistic Commit Initiation — except that the
 * no-OCI ablation nacks them while an outcome is pending (Figure 4(c)).
 */
const DispatchTable<SbProcCtrl>&
sbProcDispatch()
{
    using D = Disposition;
    constexpr auto ID = std::uint8_t(SbProcState::Idle);
    constexpr auto AW = std::uint8_t(SbProcState::AwaitOutcome);
    constexpr auto BK = std::uint8_t(SbProcState::Backoff);

    static const char* const state_names[] = {
        "Idle", "AwaitOutcome", "Backoff",
    };
    static const std::uint16_t kinds[] = {
        kCommitSuccess, kCommitFailure, kBulkInv,
    };
    static const char* const kind_names[] = {
        "commit_success", "commit_failure", "bulk_inv",
    };

    static const TransitionRow<SbProcCtrl> rows[] = {
        {ID, kCommitSuccess, D::Handler, &SbProcCtrl::onCommitSuccess,
         "onCommitSuccess", 1, {{ID, 0}},
         "outcome of an OCI-aborted chunk whose group formed anyway "
         "(aliased squash): discard it"},
        {AW, kCommitSuccess, D::Handler, &SbProcCtrl::onCommitSuccess,
         "onCommitSuccess", 2, {{ID, 0}, {AW, 0}},
         "the in-flight chunk committed; a prior chunk's aborted-discard "
         "outcome leaves the new commit waiting"},
        {BK, kCommitSuccess, D::Handler, &SbProcCtrl::onCommitSuccess,
         "onCommitSuccess", 1, {{BK, 0}},
         "stale id only: the current attempt already failed, and each "
         "attempt gets exactly one outcome"},

        {ID, kCommitFailure, D::Handler, &SbProcCtrl::onCommitFailure,
         "onCommitFailure", 1, {{ID, 0}},
         "the recall did its job (Section 3.3) or a stale attempt died"},
        {AW, kCommitFailure, D::Handler, &SbProcCtrl::onCommitFailure,
         "onCommitFailure", 2, {{BK, 0}, {AW, 0}},
         "the in-flight attempt failed: back off and retry; stale ids "
         "leave the new commit waiting"},
        {BK, kCommitFailure, D::Handler, &SbProcCtrl::onCommitFailure,
         "onCommitFailure", 1, {{BK, 0}},
         "stale id only: one outcome per attempt"},

        {ID, kBulkInv, D::Handler, &SbProcCtrl::onBulkInv, "onBulkInv", 1,
         {{ID, 0}}, "apply the invalidation and ack (no commit to recall)"},
        {AW, kBulkInv, D::Handler, &SbProcCtrl::onBulkInv, "onBulkInv", 2,
         {{AW, 0}, {ID, 0}},
         "OCI: consume, and recall our commit if it squashed the "
         "committing chunk (Figure 4(d)); the no-OCI ablation nacks "
         "instead (Figure 4(c))"},
        {BK, kBulkInv, D::Handler, &SbProcCtrl::onBulkInv, "onBulkInv", 2,
         {{BK, 0}, {ID, 0}},
         "consume; squashing the backing-off chunk aborts its retry"},
    };

    static const RecoveryRow recovery[] = {
        {ID,
         "outcomes and invalidations are commit-id guarded: a replayed "
         "message for a settled attempt is discarded, and re-applying a "
         "bulk-inv to already-invalid lines is a no-op",
         "nothing is awaited; the next startCommit() drives progress"},
        {AW,
         "the transport dedups by channel sequence before dispatch; an "
         "application-level replay of the outcome hits the "
         "one-outcome-per-attempt id guard",
         "the commit watchdog (ProtoConfig::watchdogTimeout) kicks the "
         "transport to retransmit unacked requests; attempt ids keep the "
         "re-delivery idempotent"},
        {BK,
         "late outcomes for the failed attempt are absorbed by the "
         "stale-id guard (one outcome per attempt)",
         "the backoff timer re-issues the request under a fresh attempt "
         "id regardless of what was lost"},
    };

    static const DispatchTable<SbProcCtrl> table(
        "scalablebulk", "proc", state_names, std::size(state_names), kinds,
        kind_names, std::size(kinds), /*num_real_kinds=*/3, rows,
        std::size(rows), ConflictPolicy::None,
        /*ascending_traversal=*/false, recovery, std::size(recovery));
    return table;
}

} // namespace sb
} // namespace sbulk
