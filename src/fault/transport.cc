#include "fault/transport.hh"

#include <algorithm>
#include <cstdio>

#include "proto/commit_protocol.hh"

namespace sbulk::fault
{

namespace
{

const char*
portName(Port p)
{
    switch (p) {
      case Port::Proc: return "proc";
      case Port::Dir: return "dir";
      case Port::Agent: return "agent";
    }
    return "?";
}

} // namespace

void
FaultStats::record(StatSet& out, const std::string& prefix) const
{
    out.record(prefix + ".dropsInjected", double(dropsInjected.value()));
    out.record(prefix + ".dupsInjected", double(dupsInjected.value()));
    out.record(prefix + ".delaysInjected", double(delaysInjected.value()));
    out.record(prefix + ".stallsInjected", double(stallsInjected.value()));
    out.record(prefix + ".pausesInjected", double(pausesInjected.value()));
    out.record(prefix + ".retransmissions", double(retransmissions.value()));
    out.record(prefix + ".dupsDropped", double(dupsDropped.value()));
    out.record(prefix + ".acksSent", double(acksSent.value()));
    out.record(prefix + ".kicks", double(kicks.value()));
    out.record(prefix + ".recoveryLatency", recoveryLatency);
}

FaultTransport::FaultTransport(Network& net, const FaultPlan& plan,
                               std::uint64_t stream_salt)
    : TransportLayer(net), _plan(plan),
      _rng(plan.seed + stream_salt * 0x9e3779b97f4a7c15ull)
{
    _net.setTransport(this);
    _net.allowChannelReorder(plan.arq);
}

FaultTransport::~FaultTransport()
{
    _net.setTransport(nullptr);
}

void
FaultTransport::armRecovery(const FaultPlan& plan, ProtoConfig& proto)
{
    proto.expBackoff = true;
    proto.backoffSeed = plan.seed;
    if (plan.watchdog)
        proto.watchdogTimeout = Tick(plan.rxCap) * 2;
}

void
FaultTransport::recordInjected(FaultAction a, const Message& msg)
{
    _injected.push_back({eq().now(), a, msg.cls, msg.kind, msg.src, msg.dst,
                         msg.dstPort});
}

FaultTransport::Decision
FaultTransport::decide(const Message& msg, Channel& c)
{
    Decision d;
    const Tick now = eq().now();

    // Targeted rules first: deterministic counters, no randomness. The
    // counters live on the channel, not the transport: a channel's send
    // order is canonical (single FIFO sender) while the global
    // interleaving of sends across channels depends on shard count, so
    // per-channel counting keeps rule=ACTION/SEL/n shard-invariant.
    if (c.ruleMatches.empty() && !_plan.rules.empty())
        c.ruleMatches.assign(_plan.rules.size(), 0);
    for (std::size_t i = 0; i < _plan.rules.size(); ++i) {
        const FaultRule& r = _plan.rules[i];
        if (r.hasClass && r.cls != msg.cls)
            continue;
        if (r.hasKind && r.kind != msg.kind)
            continue;
        const std::uint64_t m = ++c.ruleMatches[i];
        const bool fires =
            m == r.n || (r.every && m > r.n && (m - r.n) % r.every == 0);
        if (!fires)
            continue;
        switch (r.action) {
          case FaultAction::Drop:
            if (!d.drop) {
                d.drop = true;
                _stats.dropsInjected.inc();
                recordInjected(FaultAction::Drop, msg);
            }
            break;
          case FaultAction::Dup:
            if (!d.dup) {
                d.dup = true;
                _stats.dupsInjected.inc();
                recordInjected(FaultAction::Dup, msg);
            }
            break;
          case FaultAction::Delay:
            d.delay += r.value ? r.value : _plan.delayMax;
            _stats.delaysInjected.inc();
            recordInjected(FaultAction::Delay, msg);
            break;
          case FaultAction::Stall:
            c.stallUntil = std::max(
                c.stallUntil, now + (r.value ? r.value : _plan.stallDur));
            _stats.stallsInjected.inc();
            recordInjected(FaultAction::Stall, msg);
            break;
          case FaultAction::Pause: {
            DirGate& gate = _gates[msg.dst];
            gate.pausedUntil = std::max(
                gate.pausedUntil, now + (r.value ? r.value : _plan.pauseDur));
            _stats.pausesInjected.inc();
            recordInjected(FaultAction::Pause, msg);
            break;
          }
        }
    }

    // Random rates. Zero rates draw nothing, so a rule-only (or empty)
    // plan consumes no randomness and replays are insensitive to which
    // knobs stay off.
    if (_plan.dropRate > 0 && _rng.chance(_plan.dropRate) && !d.drop) {
        d.drop = true;
        _stats.dropsInjected.inc();
        recordInjected(FaultAction::Drop, msg);
    }
    if (_plan.dupRate > 0 && _rng.chance(_plan.dupRate) && !d.dup) {
        d.dup = true;
        _stats.dupsInjected.inc();
        recordInjected(FaultAction::Dup, msg);
    }
    if (_plan.delayRate > 0 && _rng.chance(_plan.delayRate)) {
        d.delay += Tick(_rng.between(1, _plan.delayMax));
        _stats.delaysInjected.inc();
        recordInjected(FaultAction::Delay, msg);
    }
    if (_plan.stallRate > 0 && _rng.chance(_plan.stallRate)) {
        c.stallUntil = std::max(c.stallUntil, now + _plan.stallDur);
        _stats.stallsInjected.inc();
        recordInjected(FaultAction::Stall, msg);
    }
    if (_plan.pauseRate > 0 && _rng.chance(_plan.pauseRate)) {
        DirGate& gate = _gates[msg.dst];
        gate.pausedUntil = std::max(gate.pausedUntil, now + _plan.pauseDur);
        _stats.pausesInjected.inc();
        recordInjected(FaultAction::Pause, msg);
    }
    return d;
}

void
FaultTransport::wireDelayed(MessagePtr msg, Tick delay)
{
    if (delay == 0) {
        wire(std::move(msg));
        return;
    }
    Message* raw = msg.release();
    eq().scheduleIn(delay, [this, raw] { wire(MessagePtr(raw)); });
}

void
FaultTransport::onSend(MessagePtr msg)
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    // Same-tile messages never cross the fabric: exempt from faults and
    // from sequencing (they cannot be lost or reordered).
    if (msg->src == msg->dst) {
        wire(std::move(msg));
        return;
    }
    const std::uint64_t key = channelKey(msg->src, msg->dst, msg->dstPort);
    Channel& c = _channels[key];
    Decision d = decide(*msg, c);
    const Tick now = eq().now();
    if (c.stallUntil > now)
        d.delay += c.stallUntil - now;

    if (_plan.arq) {
        msg->seq = ++c.lastSentSeq;
        Pending p;
        p.copy = msg->clone();
        p.firstSent = now;
        p.nextRetxAt = now + _plan.rxBase;
        c.pending.emplace(msg->seq, std::move(p));
        armRetx(key);
        if (d.drop)
            return; // the retransmit path recovers it
        if (d.dup)
            wireDelayed(msg->clone(), d.delay);
        wireDelayed(std::move(msg), d.delay);
        return;
    }

    // Raw mode: faults hit the protocols directly. Keep each channel FIFO
    // by clamping departures to be monotone — a delay spike must not let a
    // later send overtake (the protocols are entitled to channel order;
    // only ARQ's re-sequencing may relax it on the wire).
    Tick depart = now + d.delay;
    if (depart < c.minDepartAt)
        depart = c.minDepartAt;
    c.minDepartAt = depart;
    if (d.drop)
        return; // lost for good; the liveness monitor reports the hang
    if (d.dup)
        wireDelayed(msg->clone(), depart - now);
    wireDelayed(std::move(msg), depart - now);
}

void
FaultTransport::sendAck(const Message& msg, std::uint64_t key)
{
    _stats.acksSent.inc();
    auto ack = std::make_unique<NetAckMsg>(msg.dst, msg.src, key, msg.seq);
    // Acks ride the same lossy fabric (only drops; duplicating or delaying
    // an ack is indistinguishable from a slow one). A lost ack just means
    // one more retransmission, which the receiver dedups and re-acks.
    if (_plan.dropRate > 0 && _rng.chance(_plan.dropRate)) {
        _stats.dropsInjected.inc();
        recordInjected(FaultAction::Drop, *ack);
        return;
    }
    wire(std::move(ack));
}

void
FaultTransport::handleAck(const NetAckMsg& ack)
{
    auto cit = _channels.find(ack.channel);
    if (cit == _channels.end())
        return;
    auto pit = cit->second.pending.find(ack.ackSeq);
    if (pit == cit->second.pending.end())
        return; // duplicate ack for an already-settled seq
    if (pit->second.attempts > 0)
        _stats.recoveryLatency.sample(eq().now() - pit->second.firstSent);
    cit->second.pending.erase(pit);
}

void
FaultTransport::deliverToDst(MessagePtr msg)
{
    if (msg->dstPort == Port::Dir) {
        auto git = _gates.find(msg->dst);
        if (git != _gates.end() && eq().now() < git->second.pausedUntil) {
            const NodeId node = msg->dst;
            git->second.held.push_back(std::move(msg));
            if (!git->second.flushArmed) {
                git->second.flushArmed = true;
                eq().scheduleIn(git->second.pausedUntil - eq().now(),
                               [this, node] { flushGate(node); });
            }
            return;
        }
    }
    dispatch(std::move(msg));
}

void
FaultTransport::flushGate(NodeId node)
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    DirGate& gate = _gates[node];
    gate.flushArmed = false;
    if (eq().now() < gate.pausedUntil) {
        // The pause was extended while the flush was in flight.
        gate.flushArmed = true;
        eq().scheduleIn(gate.pausedUntil - eq().now(),
                       [this, node] { flushGate(node); });
        return;
    }
    std::vector<MessagePtr> drained;
    drained.swap(gate.held);
    for (MessagePtr& msg : drained)
        dispatch(std::move(msg)); // arrival order preserved
}

void
FaultTransport::onArrive(MessagePtr msg)
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    if (msg->kind == kNetAckKind) {
        handleAck(static_cast<const NetAckMsg&>(*msg));
        return;
    }
    // seq 0: untracked (same-tile, or sent before the transport attached).
    if (msg->seq == 0) {
        deliverToDst(std::move(msg));
        return;
    }
    const std::uint64_t key = channelKey(msg->src, msg->dst, msg->dstPort);
    Channel& c = _channels[key];
    // Ack every receipt — duplicates included, so a lost ack converges.
    sendAck(*msg, key);
    if (msg->seq < c.nextDeliverSeq) {
        _stats.dupsDropped.inc();
        return;
    }
    if (msg->seq > c.nextDeliverSeq) {
        // Out of order: hold until the gap fills (or drop a duplicate of
        // something already held).
        if (!c.holdback.emplace(msg->seq, std::move(msg)).second)
            _stats.dupsDropped.inc();
        return;
    }
    ++c.nextDeliverSeq;
    deliverToDst(std::move(msg));
    while (true) {
        auto hit = c.holdback.find(c.nextDeliverSeq);
        if (hit == c.holdback.end())
            break;
        MessagePtr next = std::move(hit->second);
        c.holdback.erase(hit);
        ++c.nextDeliverSeq;
        deliverToDst(std::move(next));
    }
}

std::size_t
FaultTransport::retransmitDue(Channel& c, Tick now, bool force)
{
    std::size_t sent = 0;
    for (auto& [seq, p] : c.pending) {
        if (!force && p.nextRetxAt > now)
            continue;
        ++p.attempts;
        const Tick backoff = std::min<Tick>(
            _plan.rxBase << std::min<std::uint32_t>(p.attempts, 10),
            _plan.rxCap);
        p.nextRetxAt = now + backoff;
        _stats.retransmissions.inc();
        MessagePtr copy = p.copy->clone();
        // Retransmissions face the same loss rate; backoff retries again.
        if (_plan.dropRate > 0 && _rng.chance(_plan.dropRate)) {
            _stats.dropsInjected.inc();
            recordInjected(FaultAction::Drop, *copy);
        } else {
            wire(std::move(copy));
            ++sent;
        }
    }
    return sent;
}

void
FaultTransport::armRetx(std::uint64_t key)
{
    Channel& c = _channels[key];
    if (c.timerArmed || c.pending.empty())
        return;
    Tick earliest = c.pending.begin()->second.nextRetxAt;
    for (const auto& [seq, p] : c.pending)
        earliest = std::min(earliest, p.nextRetxAt);
    const Tick now = eq().now();
    c.timerArmed = true;
    eq().scheduleIn(earliest > now ? earliest - now : 1,
                   [this, key] { retxFire(key); });
}

void
FaultTransport::retxFire(std::uint64_t key)
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    Channel& c = _channels[key];
    c.timerArmed = false;
    if (c.pending.empty())
        return; // everything acked while the timer was in flight
    retransmitDue(c, eq().now(), false);
    armRetx(key);
}

void
FaultTransport::kick(NodeId node)
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    _stats.kicks.inc();
    const Tick now = eq().now();
    for (auto& [key, c] : _channels) {
        if (NodeId(key >> 40) != node || c.pending.empty())
            continue;
        retransmitDue(c, now, /*force=*/true);
        armRetx(key);
    }
}

bool
FaultTransport::quiescent() const
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    for (const auto& [key, c] : _channels)
        if (!c.pending.empty() || !c.holdback.empty())
            return false;
    for (const auto& [node, gate] : _gates)
        if (!gate.held.empty())
            return false;
    return true;
}

std::string
FaultTransport::describePending() const
{
    const std::lock_guard<std::recursive_mutex> lock(_mu);
    std::string out;
    char buf[160];
    for (const auto& [key, c] : _channels) {
        const auto src = NodeId(key >> 40);
        const auto dst = NodeId((key >> 8) & 0xffffffffu);
        const auto port = Port(key & 0xff);
        for (const auto& [seq, p] : c.pending) {
            std::snprintf(buf, sizeof buf,
                          "unacked %s kind=%u %u->%u:%s seq=%u attempts=%u; ",
                          msgClassName(p.copy->cls), unsigned(p.copy->kind),
                          src, dst, portName(port), seq, p.attempts);
            out += buf;
        }
        for (const auto& [seq, m] : c.holdback) {
            std::snprintf(buf, sizeof buf,
                          "holdback %s kind=%u %u->%u:%s seq=%u "
                          "(waiting for seq=%u); ",
                          msgClassName(m->cls), unsigned(m->kind), src, dst,
                          portName(port), seq, c.nextDeliverSeq);
            out += buf;
        }
    }
    for (const auto& [node, gate] : _gates) {
        if (gate.held.empty())
            continue;
        std::snprintf(buf, sizeof buf, "dir %u gate holds %zu message(s); ",
                      node, gate.held.size());
        out += buf;
    }
    if (out.size() >= 2)
        out.resize(out.size() - 2); // trailing "; "
    return out;
}

} // namespace sbulk::fault
