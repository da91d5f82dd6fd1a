#include "proto/scalablebulk/dir_ctrl.hh"

#include <algorithm>
#include <bit>
#include <utility>

namespace sbulk
{
namespace sb
{

SbDirCtrl::SbDirCtrl(NodeId self, ProtoContext ctx, Directory& dir)
    : _self(self), _ctx(ctx), _dir(dir)
{
    _dir.setReadGate([this](Addr line) { return loadBlocked(line); });
}

namespace
{

/** Commit identity a directory message is about. */
const CommitId&
subjectOf(const Message& msg)
{
    switch (msg.kind) {
      case kCommitRequest:
        return static_cast<const CommitRequestMsg&>(msg).id;
      case kGrab:
        return static_cast<const GrabMsg&>(msg).id;
      case kGFailure:
        return static_cast<const GFailureMsg&>(msg).id;
      case kGSuccess:
        return static_cast<const GSuccessMsg&>(msg).id;
      case kBulkInvAck:
        return static_cast<const BulkInvAckMsg&>(msg).id;
      case kBulkInvNack:
        return static_cast<const BulkInvNackMsg&>(msg).id;
      case kCommitDone:
        return static_cast<const CommitDoneMsg&>(msg).id;
    }
    SBULK_PANIC("no commit subject for message kind %u", msg.kind);
}

} // namespace

void
SbDirCtrl::handleMessage(MessagePtr msg)
{
    const CommitId id = subjectOf(*msg);
    sbDirDispatch().run(
        *this, [this, &id] { return std::uint8_t(cstStateOf(id)); },
        std::move(msg));
}

CstState
SbDirCtrl::cstStateOf(const CommitId& id) const
{
    auto it = _cst.find(id);
    if (it == _cst.end())
        return CstState::Idle;
    const CstEntry& e = it->second;
    if (e.failed)
        return CstState::Tombstone;
    if (e.confirmed)
        return e.leader ? CstState::LeaderCommit : CstState::MemberDone;
    if (e.hold)
        return e.leader ? CstState::LeaderWork : CstState::MemberHeld;
    // A leader never rests unadmitted: its commit_request either admits it
    // (hold) or fails the group (entry gone), so the waiting states below
    // are member-or-unknown territory.
    if (e.haveRequest)
        return CstState::ReqWait;
    if (e.haveGrab)
        return CstState::GrabWait;
    return CstState::Armed;
}

bool
SbDirCtrl::loadBlocked(Addr line) const
{
    // Section 3.1: from (R,W) reception until commit_done / failure, loads
    // matching a held W signature bounce. Signature aliasing can nack
    // unnecessarily — harmless.
    for (const auto& [id, entry] : _cst) {
        if (entry.haveRequest && !entry.failed && entry.wSig.contains(line))
            return true;
    }
    return false;
}

CstEntry&
SbDirCtrl::getEntry(const CommitId& id)
{
    auto [it, inserted] = _cst.try_emplace(id);
    if (inserted)
        it->second.id = id;
    return it->second;
}

bool
SbDirCtrl::requestSeen(const CommitId& id) const
{
    auto it = _lastRequested.find(id.tag.proc);
    return it != _lastRequested.end() &&
           it->second >= std::make_pair(id.tag.seq, id.attempt);
}

void
SbDirCtrl::onCommitRequestTombstone(MessagePtr mp)
{
    const auto& msg = static_cast<const CommitRequestMsg&>(*mp);
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvCommitRequest);

    auto& mark = _lastRequested[msg.id.tag.proc];
    mark = std::max(mark, std::make_pair(msg.id.tag.seq, msg.id.attempt));

    // A g_failure beat the request here (Appendix A, "after Collision
    // module" with reordering). Resolve: the leader reports failure.
    const bool was_leader = !msg.order.empty() && msg.order.front() == _self;
    if (was_leader) {
        if (_validator)
            _validator->note(msg.id, DirEvent::SendCommitFailure);
        _ctx.net.send(
            std::make_unique<CommitFailureMsg>(_self, msg.src, msg.id));
    }
    if (_validator)
        _validator->resolve(msg.id, was_leader, /*success=*/false);
    deallocate(msg.id);
}

void
SbDirCtrl::onCommitRequest(MessagePtr mp)
{
    const auto& msg = static_cast<const CommitRequestMsg&>(*mp);
    CstEntry& entry = getEntry(msg.id);
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvCommitRequest);

    auto& mark = _lastRequested[msg.id.tag.proc];
    mark = std::max(mark, std::make_pair(msg.id.tag.seq, msg.id.attempt));

    entry.haveRequest = true;
    entry.rSig = msg.rSig;
    entry.wSig = msg.wSig;
    entry.gVec = msg.gVec;
    entry.order = msg.order;
    entry.committer = msg.src;
    entry.writesHere = msg.writesHere;
    entry.allWrites = msg.allWrites;
    entry.leader = !msg.order.empty() && msg.order.front() == _self;

    // Expand W against the local directory state: sharers of the lines
    // written here are the module's inval_vec contribution (computed in
    // parallel with group formation — not on the critical path).
    entry.myInval.clear();
    for (Addr line : entry.writesHere)
        entry.myInval |= _dir.sharersOf(line, entry.committer);

    if (entry.leader)
        _ctx.metrics.addForming(1);

    tryAdmit(entry);
}

void
SbDirCtrl::onGrab(MessagePtr mp)
{
    const auto& msg = static_cast<const GrabMsg&>(*mp);
    if (!_cst.count(msg.id) && requestSeen(msg.id))
        return; // stale: the group already resolved (and deallocated) here
    CstEntry& entry = getEntry(msg.id);
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvGrab);
    entry.haveGrab = true;
    entry.grabInval |= msg.invalVec;
    if (entry.order.empty())
        entry.order = msg.order;

    if (entry.leader) {
        // The g came back around the ring: the group is formed.
        SBULK_ASSERT(entry.hold, "g returned to a leader that never sent it");
        if (!entry.confirmed) {
            entry.confirmed = true;
            confirmAsLeader(entry);
        }
        return;
    }
    tryAdmit(entry);
}

void
SbDirCtrl::tryAdmit(CstEntry& entry)
{
    if (entry.failed || entry.hold || !entry.haveRequest)
        return;
    if (!entry.leader && !entry.haveGrab)
        return; // the g has not reached us yet

    // A commit recall for this chunk: the committer squashed; fail the
    // group now that both pieces have arrived (Section 3.4).
    if (entry.recallArmed) {
        failGroup(entry, GroupFailReason::Recall);
        return;
    }

    // Starvation reservation: behave as if every other chunk collided and
    // lost (Section 3.2.2). A stale reservation (its chunk died or is
    // itself blocked elsewhere) expires so it cannot wedge the module.
    if (_reservedFor &&
        _ctx.eq.now() - _reservedSince > _ctx.cfg.starvationTimeout) {
        _failCounts.erase(*_reservedFor);
        _reservedFor.reset();
    }
    if (_reservedFor && *_reservedFor != entry.id.tag) {
        failGroup(entry, GroupFailReason::Reservation);
        return;
    }

    // Compatibility against every chunk admitted at this module: all of
    // Ri∩Wj, Rj∩Wi, Wi∩Wj must be null (Section 3.2.1). This module is
    // the Collision module for any group it fails here.
    // (sbBreak == AdmitConflicting skips the check entirely — a test-only
    // sabotage mode for the invariant oracles, see SbBreakMode.)
    if (_ctx.cfg.sbBreak != SbBreakMode::AdmitConflicting) {
        for (const auto& [oid, other] : _cst) {
            if (oid == entry.id || !other.hold || other.failed)
                continue;
            if (!chunksCompatible(entry.rSig, entry.wSig, other.rSig,
                                  other.wSig)) {
                // failGroup() deallocates its entry: copy the ids first.
                const CommitId winner = other.id;
                const CommitId loser = entry.id;
                failGroup(entry, GroupFailReason::Collision, winner);
                if (_ctx.cfg.sbBreak == SbBreakMode::FailBothOnCollision) {
                    // Sabotage: kill the admitted winner too, but only at
                    // its own leader module (and before it confirmed) —
                    // the ring must come back here, so the stale-grab
                    // guard in onGrab() can absorb it. Killing a winner
                    // whose ring completes elsewhere would leave g_success
                    // messages with no entry to land on.
                    if (auto it = _cst.find(winner);
                        it != _cst.end() && it->second.leader &&
                        !it->second.confirmed)
                        failGroup(it->second, GroupFailReason::Collision,
                                  loser);
                }
                return;
            }
        }
    }

    // Admitted: hold the module for this group and pass the g on.
    entry.hold = true;
    const NodeSet inval = entry.grabInval | entry.myInval;

    if (entry.leader && entry.order.size() == 1) {
        // Single-module group: formed on the spot.
        entry.confirmed = true;
        entry.grabInval = inval;
        confirmAsLeader(entry);
        return;
    }
    if (_validator)
        _validator->note(entry.id, DirEvent::SendGrab);
    _ctx.net.send(std::make_unique<GrabMsg>(_self, nextInOrder(entry),
                                            entry.id, inval, entry.order));
}

NodeId
SbDirCtrl::nextInOrder(const CstEntry& entry) const
{
    for (std::size_t i = 0; i < entry.order.size(); ++i) {
        if (entry.order[i] == _self)
            return entry.order[(i + 1) % entry.order.size()];
    }
    SBULK_PANIC("module %u not in its group order", _self);
}

void
SbDirCtrl::multicastGFailure(const CstEntry& entry, bool collision)
{
    for (NodeId member : entry.order) {
        if (member == _self)
            continue;
        _ctx.net.send(std::make_unique<GFailureMsg>(_self, member,
                                                    entry.id, collision));
    }
}

void
SbDirCtrl::failGroup(CstEntry& entry, GroupFailReason why,
                     const CommitId& winner)
{
    const bool collision = why == GroupFailReason::Collision;
    entry.failed = true;
    if (_ctx.observer)
        _ctx.observer->onGroupFailed(_self, entry.id, why, winner);
    if (collision)
        noteFailure(entry);
    if (_validator)
        _validator->note(entry.id, DirEvent::SendGFailure);
    multicastGFailure(entry, collision);
    if (entry.leader) {
        _ctx.metrics.addForming(-1);
        if (_validator)
            _validator->note(entry.id, DirEvent::SendCommitFailure);
        _ctx.net.send(std::make_unique<CommitFailureMsg>(
            _self, entry.committer, entry.id));
    }
    if (_validator)
        _validator->resolve(entry.id, entry.leader, /*success=*/false);
    deallocate(entry.id);
}

void
SbDirCtrl::onGFailure(MessagePtr mp)
{
    const auto& msg = static_cast<const GFailureMsg&>(*mp);
    CstEntry& entry = getEntry(msg.id);
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvGFailure);
    entry.failed = true;
    if (msg.countsForStarvation)
        noteFailure(entry);
    if (entry.haveRequest) {
        if (entry.leader) {
            _ctx.metrics.addForming(-1);
            if (_validator)
                _validator->note(msg.id, DirEvent::SendCommitFailure);
            _ctx.net.send(std::make_unique<CommitFailureMsg>(
                _self, entry.committer, entry.id));
        }
        if (_validator)
            _validator->resolve(msg.id, entry.leader, /*success=*/false);
        deallocate(msg.id);
    }
    // else: keep the failed tombstone until the commit_request arrives.
}

void
SbDirCtrl::confirmAsLeader(CstEntry& entry)
{
    _ctx.metrics.addForming(-1);
    _ctx.metrics.addCommitting(1);
    _ctx.metrics.sampleGroupFormedEvent();
    if (_ctx.observer)
        _ctx.observer->onGroupFormed(_self, entry.id, entry.gVec);

    // Figure 3(c)/(d): g_success to the members, commit success to the
    // processor, bulk invalidations to the sharers.
    if (_validator && entry.order.size() > 1)
        _validator->note(entry.id, DirEvent::SendGSuccess);
    for (NodeId member : entry.order) {
        if (member == _self)
            continue;
        _ctx.net.send(
            std::make_unique<GSuccessMsg>(_self, member, entry.id));
    }
    if (_validator)
        _validator->note(entry.id, DirEvent::SendCommitSuccess);
    _ctx.net.send(std::make_unique<CommitSuccessMsg>(
        _self, entry.committer, entry.id));

    applyCommitUpdates(entry);
    sendBulkInvs(entry);
    if (entry.acksPending == 0)
        finishAsLeader(entry);
}

void
SbDirCtrl::sendBulkInvs(CstEntry& entry)
{
    const NodeSet targets =
        (entry.grabInval | entry.myInval).without(entry.committer);
    entry.acksPending = targets.count();
    if (_validator && !targets.empty())
        _validator->note(entry.id, DirEvent::SendBulkInv);
    targets.forEach([&](NodeId proc) {
        _ctx.net.send(std::make_unique<BulkInvMsg>(
            _self, proc, entry.id, entry.wSig, entry.allWrites,
            entry.committer, _self));
    });
}

void
SbDirCtrl::onGSuccess(MessagePtr mp)
{
    const auto& msg = static_cast<const GSuccessMsg&>(*mp);
    CstEntry& entry = getEntry(msg.id);
    SBULK_ASSERT(entry.haveRequest && !entry.failed,
                 "g_success for a group not held here");
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvGSuccess);
    entry.confirmed = true;
    applyCommitUpdates(entry);
}

void
SbDirCtrl::applyCommitUpdates(CstEntry& entry)
{
    for (Addr line : entry.writesHere) {
        _dir.commitLine(line, entry.committer);
        if (_ctx.observer)
            _ctx.observer->onLineCommitted(_self, line, entry.id);
    }
}

void
SbDirCtrl::onBulkInvAck(MessagePtr mp)
{
    const auto& msg = static_cast<const BulkInvAckMsg&>(*mp);
    auto it = _cst.find(msg.id);
    SBULK_ASSERT(it != _cst.end() && it->second.leader,
                 "bulk_inv_ack at a non-leader");
    CstEntry& entry = it->second;
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvBulkInvAck);

    if (msg.recall.valid) {
        _ctx.metrics.commitRecalls.inc();
        // Route the recall to the Collision module: the lowest member
        // common to the winner (this group) and the loser (Section 3.4).
        const NodeSet common = entry.gVec.intersect(msg.recall.gVec);
        if (!common.empty()) {
            const NodeId collision = common.first();
            entry.recalls.push_back(RecallNote{msg.recall.id, collision});
        }
        // No common module: the two groups share no directory (the squash
        // came from signature aliasing at the processor). The loser's
        // group can form independently; the processor discards its
        // outcome (see SbProcCtrl).
    }

    SBULK_ASSERT(entry.acksPending > 0);
    if (--entry.acksPending == 0)
        finishAsLeader(entry);
}

void
SbDirCtrl::onBulkInvNack(MessagePtr mp)
{
    const auto& msg = static_cast<const BulkInvNackMsg&>(*mp);
    // Conservative initiation (OCI off): the sharer is itself waiting on a
    // commit outcome and bounced our W; retry until it consumes it
    // (Figure 4(c)).
    auto it = _cst.find(msg.id);
    SBULK_ASSERT(it != _cst.end());
    CstEntry& entry = it->second;
    const NodeId target = msg.src;
    const CommitId id = msg.id;
    _ctx.eq.scheduleIn(_ctx.cfg.invRetryDelay, [this, id, target] {
        auto it2 = _cst.find(id);
        if (it2 == _cst.end())
            return;
        CstEntry& e = it2->second;
        _ctx.net.send(std::make_unique<BulkInvMsg>(
            _self, target, e.id, e.wSig, e.allWrites, e.committer, _self));
    });
    (void)entry;
}

void
SbDirCtrl::finishAsLeader(CstEntry& entry)
{
    _ctx.metrics.addCommitting(-1);

    if (_validator && entry.order.size() > 1)
        _validator->note(entry.id, DirEvent::SendCommitDone);
    for (NodeId member : entry.order) {
        if (member == _self)
            continue;
        _ctx.net.send(std::make_unique<CommitDoneMsg>(_self, member,
                                                      entry.id,
                                                      entry.recalls));
    }
    // The leader acts on recalls addressed to itself.
    for (const RecallNote& note : entry.recalls) {
        if (note.collision == _self) {
            // Handled below via the same path members use.
            if (_validator)
                _validator->note(note.id, DirEvent::RecvCommitRecall);
            if (!_cst.count(note.id) && requestSeen(note.id))
                continue; // stale: the loser already resolved here
            CstEntry& loser = getEntry(note.id);
            if (!loser.failed && !loser.hold) {
                loser.recallArmed = true;
                if (_reservedFor && *_reservedFor == note.id.tag)
                    _reservedFor.reset();
                tryAdmit(loser);
            }
        }
    }

    if (_reservedFor && *_reservedFor == entry.id.tag) {
        _reservedFor.reset();
        _failCounts.erase(entry.id.tag);
    }
    if (_validator)
        _validator->resolve(entry.id, /*leader=*/true, /*success=*/true);
    deallocate(entry.id);
}

void
SbDirCtrl::onCommitDone(MessagePtr mp)
{
    const auto& msg = static_cast<const CommitDoneMsg&>(*mp);
    auto it = _cst.find(msg.id);
    SBULK_ASSERT(it != _cst.end() && it->second.confirmed,
                 "commit_done for an unconfirmed group");
    if (_validator)
        _validator->note(msg.id, DirEvent::RecvCommitDone);

    for (const RecallNote& note : msg.recalls) {
        if (note.collision != _self)
            continue;
        if (_validator)
            _validator->note(note.id, DirEvent::RecvCommitRecall);
        if (!_cst.count(note.id) && requestSeen(note.id))
            continue; // stale: the loser already resolved here
        CstEntry& loser = getEntry(note.id);
        if (loser.failed || loser.hold) {
            // Already failed (discard, per Section 3.4) or already past
            // the point of recall.
            continue;
        }
        loser.recallArmed = true;
        if (_reservedFor && *_reservedFor == note.id.tag)
            _reservedFor.reset();
        // If both (R,W) and g are already here, fail the group now.
        tryAdmit(loser);
    }

    if (_reservedFor && *_reservedFor == msg.id.tag) {
        _reservedFor.reset();
        _failCounts.erase(msg.id.tag);
    }
    if (_validator)
        _validator->resolve(msg.id, /*leader=*/false, /*success=*/true);
    deallocate(msg.id);
}

void
SbDirCtrl::noteFailure(const CstEntry& entry)
{
    const std::uint32_t count = ++_failCounts[entry.id.tag];
    if (count < _ctx.cfg.starvationMax)
        return;
    // Reserve for the *globally smallest* starving tag: directories that
    // disagree (different failure-observation orders) converge on the
    // same chunk, so overlapping reservations cannot deadlock.
    if (!_reservedFor || entry.id.tag < *_reservedFor) {
        _reservedFor = entry.id.tag;
        _reservedSince = _ctx.eq.now();
        _ctx.metrics.starvationReservations.inc();
    }
}

void
SbDirCtrl::deallocate(const CommitId& id)
{
    _cst.erase(id);
}

/*
 * The directory module's declared state machine: every (CstState x message
 * kind) cell, with the (next state, emitted Appendix-A events) alternatives
 * each handler can produce. tools/sbulk-lint audits this table statically;
 * DispatchTable::run() enforces it on every delivery.
 */
const DispatchTable<SbDirCtrl>&
sbDirDispatch()
{
    using D = Disposition;
    using E = DirEvent;
    // State abbreviations for the table literals.
    constexpr auto ID = std::uint8_t(CstState::Idle);
    constexpr auto RW = std::uint8_t(CstState::ReqWait);
    constexpr auto GW = std::uint8_t(CstState::GrabWait);
    constexpr auto AR = std::uint8_t(CstState::Armed);
    constexpr auto MH = std::uint8_t(CstState::MemberHeld);
    constexpr auto MD = std::uint8_t(CstState::MemberDone);
    constexpr auto LW = std::uint8_t(CstState::LeaderWork);
    constexpr auto LC = std::uint8_t(CstState::LeaderCommit);
    constexpr auto TS = std::uint8_t(CstState::Tombstone);

    static const char* const state_names[] = {
        "Idle",       "ReqWait",    "GrabWait",     "Armed",     "MemberHeld",
        "MemberDone", "LeaderWork", "LeaderCommit", "Tombstone",
    };
    static const std::uint16_t kinds[] = {
        kCommitRequest, kGrab,       kGFailure,   kGSuccess,
        kBulkInvAck,    kBulkInvNack, kCommitDone, kRecallNoteKind,
    };
    static const char* const kind_names[] = {
        "commit_request", "g",             "g_failure",   "g_success",
        "bulk_inv_ack",   "bulk_inv_nack", "commit_done", "recall",
    };

    static const TransitionRow<SbDirCtrl> rows[] = {
        // ---- commit_request ------------------------------------------
        {ID, kCommitRequest, D::Handler, &SbDirCtrl::onCommitRequest,
         "onCommitRequest", 5,
         {{RW, evseq(E::RecvCommitRequest)},
          {LW, evseq(E::RecvCommitRequest, E::SendGrab)},
          {LC, evseq(E::RecvCommitRequest, E::SendCommitSuccess,
                     E::SendBulkInv)},
          {ID, evseq(E::RecvCommitRequest, E::SendCommitSuccess)},
          {ID, evseq(E::RecvCommitRequest, E::SendGFailure,
                     E::SendCommitFailure)}},
         "member waits for its g; a leader admits (single-module groups "
         "confirm on the spot) or fails on collision/reservation"},
        {GW, kCommitRequest, D::Handler, &SbDirCtrl::onCommitRequest,
         "onCommitRequest", 2,
         {{MH, evseq(E::RecvCommitRequest, E::SendGrab)},
          {ID, evseq(E::RecvCommitRequest, E::SendGFailure)}},
         "g arrived first: both pieces now here, admit or collide"},
        {AR, kCommitRequest, D::Handler, &SbDirCtrl::onCommitRequest,
         "onCommitRequest", 2,
         {{RW, evseq(E::RecvCommitRequest)},
          {ID, evseq(E::RecvCommitRequest, E::SendGFailure,
                     E::SendCommitFailure)}},
         "recall-armed: a member still waits for its g (it fails on g "
         "arrival); a leader has both pieces and fails immediately"},
        {TS, kCommitRequest, D::Handler,
         &SbDirCtrl::onCommitRequestTombstone, "onCommitRequestTombstone", 2,
         {{ID, evseq(E::RecvCommitRequest, E::SendCommitFailure)},
          {ID, evseq(E::RecvCommitRequest)}},
         "g_failure beat the request; reap the tombstone (leader also "
         "reports commit_failure)"},
        {RW, kCommitRequest, D::Unreachable, nullptr, nullptr, 1, {{RW, 0}},
         "one commit_request per (id, attempt) per module"},
        {MH, kCommitRequest, D::Unreachable, nullptr, nullptr, 1, {{MH, 0}},
         "one commit_request per (id, attempt) per module"},
        {MD, kCommitRequest, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "one commit_request per (id, attempt) per module"},
        {LW, kCommitRequest, D::Unreachable, nullptr, nullptr, 1, {{LW, 0}},
         "one commit_request per (id, attempt) per module"},
        {LC, kCommitRequest, D::Unreachable, nullptr, nullptr, 1, {{LC, 0}},
         "one commit_request per (id, attempt) per module"},

        // ---- g (grab) ------------------------------------------------
        {ID, kGrab, D::Handler, &SbDirCtrl::onGrab, "onGrab", 2,
         {{GW, evseq(E::RecvGrab)}, {ID, evseq()}},
         "g beat the commit_request; park it (a g for a group already "
         "resolved here — per the _lastRequested watermark — is stale and "
         "dropped)"},
        {RW, kGrab, D::Handler, &SbDirCtrl::onGrab, "onGrab", 2,
         {{MH, evseq(E::RecvGrab, E::SendGrab)},
          {ID, evseq(E::RecvGrab, E::SendGFailure)}},
         "both pieces now here: admit and pass the g on, or fail "
         "(collision / reservation / armed recall)"},
        {AR, kGrab, D::Handler, &SbDirCtrl::onGrab, "onGrab", 1,
         {{GW, evseq(E::RecvGrab)}},
         "recall-armed placeholder: park the g until the request arrives"},
        {LW, kGrab, D::Handler, &SbDirCtrl::onGrab, "onGrab", 2,
         {{LC, evseq(E::RecvGrab, E::SendGSuccess, E::SendCommitSuccess,
                     E::SendBulkInv)},
          {ID, evseq(E::RecvGrab, E::SendGSuccess, E::SendCommitSuccess,
                     E::SendCommitDone)}},
         "the g came back around the ring: group formed; with no sharers "
         "to invalidate the leader finishes immediately"},
        {TS, kGrab, D::Drop, nullptr, nullptr, 1, {{TS, evseq()}},
         "a racing g_failure already resolved this group here; the "
         "tombstone waits for the commit_request"},
        {GW, kGrab, D::Unreachable, nullptr, nullptr, 1, {{GW, 0}},
         "a group's g traverses each member exactly once"},
        {MH, kGrab, D::Unreachable, nullptr, nullptr, 1, {{MH, 0}},
         "the member already passed its g on; only its ring predecessor "
         "sends it one, once"},
        {MD, kGrab, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "g_success implies the ring completed; no g is in flight"},
        {LC, kGrab, D::Unreachable, nullptr, nullptr, 1, {{LC, 0}},
         "the ring returns to the leader exactly once"},

        // ---- g_failure -----------------------------------------------
        {ID, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{TS, evseq(E::RecvGFailure)}},
         "failure outran both request and g: leave a tombstone"},
        {RW, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{ID, evseq(E::RecvGFailure)}},
         "member with only the request: resolve the loss now"},
        {GW, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{TS, evseq(E::RecvGFailure)}},
         "no request yet: tombstone until it arrives"},
        {AR, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{TS, evseq(E::RecvGFailure)}},
         "no request yet: tombstone until it arrives"},
        {MH, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{ID, evseq(E::RecvGFailure)}},
         "admitted member learns the group failed elsewhere"},
        {LW, kGFailure, D::Handler, &SbDirCtrl::onGFailure, "onGFailure", 1,
         {{ID, evseq(E::RecvGFailure, E::SendCommitFailure)}},
         "leader learns the group failed: report commit_failure"},
        {TS, kGFailure, D::Drop, nullptr, nullptr, 1, {{TS, evseq()}},
         "duplicate failure (several modules can fail one group)"},
        {MD, kGFailure, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "a module fails a group only while admitting; once every member "
         "holds (which g_success implies) none can originate g_failure"},
        {LC, kGFailure, D::Unreachable, nullptr, nullptr, 1, {{LC, 0}},
         "the ring completed (group confirmed), so no member failed it"},

        // ---- g_success -----------------------------------------------
        {MH, kGSuccess, D::Handler, &SbDirCtrl::onGSuccess, "onGSuccess", 1,
         {{MD, evseq(E::RecvGSuccess)}},
         "ring completed: commit the writes homed here"},
        {ID, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{ID, 0}},
         "g_success goes only to members that hold the group"},
        {RW, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{RW, 0}},
         "g_success goes only to members that hold the group"},
        {GW, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{GW, 0}},
         "g_success goes only to members that hold the group"},
        {AR, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{AR, 0}},
         "g_success goes only to members that hold the group"},
        {MD, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "the leader sends one g_success per member"},
        {LW, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{LW, 0}},
         "the leader sends g_success, it never receives one"},
        {LC, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{LC, 0}},
         "the leader sends g_success, it never receives one"},
        {TS, kGSuccess, D::Unreachable, nullptr, nullptr, 1, {{TS, 0}},
         "a group cannot both confirm and fail: the failing module's "
         "g_failure means the ring never completed"},

        // ---- bulk_inv_ack --------------------------------------------
        {LC, kBulkInvAck, D::Handler, &SbDirCtrl::onBulkInvAck,
         "onBulkInvAck", 3,
         {{LC, evseq(E::RecvBulkInvAck)},
          {ID, evseq(E::RecvBulkInvAck, E::SendCommitDone)},
          {ID, evseq(E::RecvBulkInvAck)}},
         "collect acks (with piggy-backed recalls); the last one releases "
         "the group (single-module groups have no commit_done to send)"},
        {ID, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{ID, 0}},
         "every sharer acks exactly one bulk_inv, before the leader "
         "deallocates (it waits for all acks)"},
        {RW, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{RW, 0}},
         "only the confirmed leader sends bulk_invs"},
        {GW, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{GW, 0}},
         "only the confirmed leader sends bulk_invs"},
        {AR, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{AR, 0}},
         "only the confirmed leader sends bulk_invs"},
        {MH, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{MH, 0}},
         "only the confirmed leader sends bulk_invs"},
        {MD, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "only the confirmed leader sends bulk_invs"},
        {LW, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{LW, 0}},
         "bulk_invs go out at confirmation, after LeaderWork ends"},
        {TS, kBulkInvAck, D::Unreachable, nullptr, nullptr, 1, {{TS, 0}},
         "a failed group never sent bulk_invs"},

        // ---- bulk_inv_nack -------------------------------------------
        {LC, kBulkInvNack, D::Handler, &SbDirCtrl::onBulkInvNack,
         "onBulkInvNack", 1, {{LC, evseq()}},
         "conservative-initiation bounce (OCI off): schedule an inv retry"},
        {ID, kBulkInvNack, D::Drop, nullptr, nullptr, 1, {{ID, evseq()}},
         "stale nack of a retry inv that raced the final ack: the group "
         "already released"},
        {RW, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{RW, 0}},
         "only the confirmed leader sends bulk_invs"},
        {GW, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{GW, 0}},
         "only the confirmed leader sends bulk_invs"},
        {AR, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{AR, 0}},
         "only the confirmed leader sends bulk_invs"},
        {MH, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{MH, 0}},
         "only the confirmed leader sends bulk_invs"},
        {MD, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{MD, 0}},
         "only the confirmed leader sends bulk_invs"},
        {LW, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{LW, 0}},
         "bulk_invs go out at confirmation, after LeaderWork ends"},
        {TS, kBulkInvNack, D::Unreachable, nullptr, nullptr, 1, {{TS, 0}},
         "a failed group never sent bulk_invs"},

        // ---- commit_done ---------------------------------------------
        {MD, kCommitDone, D::Handler, &SbDirCtrl::onCommitDone,
         "onCommitDone", 1, {{ID, evseq(E::RecvCommitDone)}},
         "release the member's hold; act on piggy-backed recalls"},
        {ID, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{ID, 0}},
         "commit_done goes once to each member still holding the group"},
        {RW, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{RW, 0}},
         "commit_done follows g_success on the same leader-to-member "
         "channel (FIFO)"},
        {GW, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{GW, 0}},
         "commit_done follows g_success on the same leader-to-member "
         "channel (FIFO)"},
        {AR, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{AR, 0}},
         "commit_done follows g_success on the same leader-to-member "
         "channel (FIFO)"},
        {MH, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{MH, 0}},
         "commit_done follows g_success on the same leader-to-member "
         "channel (FIFO)"},
        {LW, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{LW, 0}},
         "the leader sends commit_done, it never receives one"},
        {LC, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{LC, 0}},
         "the leader sends commit_done, it never receives one"},
        {TS, kCommitDone, D::Unreachable, nullptr, nullptr, 1, {{TS, 0}},
         "a failed group never confirms, so no commit_done"},

        // ---- commit recall (internal: piggy-backed on ack/done) ------
        {ID, kRecallNoteKind, D::Internal, nullptr, nullptr, 2,
         {{AR, evseq(E::RecvCommitRecall)}, {ID, evseq(E::RecvCommitRecall)}},
         "arm a placeholder entry so the loser fails when its pieces "
         "arrive; stale recalls (group already resolved here) are ignored"},
        {RW, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{RW, evseq(E::RecvCommitRecall)}},
         "arm the waiting member: it fails when its g arrives"},
        {GW, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{GW, evseq(E::RecvCommitRecall)}},
         "arm the parked g: the group fails when the request arrives"},
        {AR, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{AR, evseq(E::RecvCommitRecall)}},
         "already armed (recalls for distinct squashed sharers)"},
        {MH, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{MH, evseq(E::RecvCommitRecall)}},
         "past the point of recall: the module already holds (Section 3.4 "
         "discard)"},
        {MD, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{MD, evseq(E::RecvCommitRecall)}},
         "past the point of recall: the group confirmed"},
        {LW, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{LW, evseq(E::RecvCommitRecall)}},
         "past the point of recall: the module already holds (Section 3.4 "
         "discard)"},
        {LC, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{LC, evseq(E::RecvCommitRecall)}},
         "past the point of recall: the group confirmed"},
        {TS, kRecallNoteKind, D::Internal, nullptr, nullptr, 1,
         {{TS, evseq(E::RecvCommitRecall)}},
         "already failed: discard, per Section 3.4"},
    };

    static const RecoveryRow recovery[] = {
        {ID,
         "a replayed commit_request would open a second CST entry for the "
         "same attempt; exactly-once delivery (transport dedup by channel "
         "sequence) is load-bearing here",
         "no state is held; a lost commit_request sits unacked in the "
         "committer's retransmission store and its watchdog re-drives it"},
        {RW,
         "the entry is keyed by commit id and the g can be taken from "
         "ReqWait only once (the state moves); wire duplicates are "
         "deduped below dispatch",
         "the awaited g is regenerated by the upstream ring module's "
         "retransmission channel; a dead group is reclaimed through the "
         "recall/tombstone path"},
        {GW,
         "holding g, waiting for the request: a duplicated commit_request "
         "is transport-deduped, and the pair is joined by commit id",
         "the missing commit_request is still unacked at the committer; "
         "its watchdog kick retransmits it"},
        {AR,
         "re-arming an already-armed recall placeholder for the same id "
         "is idempotent",
         "the placeholder waits only for the original request, which the "
         "committer's retransmission channel re-delivers; it dissolves "
         "when consumed"},
        {MH,
         "ring and ack messages for this id are single-shot per attempt; "
         "the transport dedups wire-level replays",
         "g_success/g_failure travel the ring; a loss is repaired by the "
         "upstream module's retransmission channel"},
        {MD,
         "a replayed commit_done would double-release the module; "
         "transport dedup keeps release exactly-once",
         "commit_done is tracked in the leader's retransmission store "
         "until this module's transport acks it"},
        {LW,
         "a duplicated g returning to the leader would double-accumulate "
         "inval vectors; transport dedup protects the ring",
         "ring loss is repaired hop-by-hop by each module's "
         "retransmission channel; the committer's watchdog re-kicks the "
         "whole group"},
        {LC,
         "bulk_inv acks are counted once per member; a replayed ack would "
         "finish the commit early, so dedup keeps the count exact",
         "missing acks are retransmitted from each member processor's "
         "channel until the leader's count drains"},
        {TS,
         "absorbing replays is the tombstone's purpose: the failure "
         "already answered this id, and a duplicate meets the same "
         "tombstone",
         "the tombstone waits only for the original (retransmitted) "
         "request and is reclaimed when it arrives"},
    };

    static const DispatchTable<SbDirCtrl> table(
        "scalablebulk", "dir", state_names, std::size(state_names), kinds,
        kind_names, std::size(kinds), /*num_real_kinds=*/7, rows,
        std::size(rows), ConflictPolicy::KeepWinner,
        /*ascending_traversal=*/true, recovery, std::size(recovery));
    return table;
}

} // namespace sb
} // namespace sbulk
