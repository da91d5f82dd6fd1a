#include "net/network.hh"

#include <algorithm>
#include <cmath>

namespace sbulk
{

const char*
msgClassName(MsgClass cls)
{
    switch (cls) {
      case MsgClass::MemRd: return "MemRd";
      case MsgClass::RemoteShRd: return "RemoteShRd";
      case MsgClass::RemoteDirtyRd: return "RemoteDirtyRd";
      case MsgClass::LargeCMessage: return "LargeCMessage";
      case MsgClass::SmallCMessage: return "SmallCMessage";
      case MsgClass::Other: return "Other";
    }
    return "?";
}

void
Network::deliver(MessagePtr msg)
{
    if (_transport) {
        _transport->onArrive(std::move(msg));
        return;
    }
    dispatch(std::move(msg));
}

void
Network::dispatch(MessagePtr msg)
{
    SBULK_ASSERT(msg->dst < _handlers.size(), "message to unknown node %u",
                 msg->dst);
    auto& handler = _handlers[msg->dst][std::size_t(msg->dstPort)];
    SBULK_ASSERT(handler != nullptr, "no handler at node %u port %u",
                 msg->dst, unsigned(msg->dstPort));
    handler(std::move(msg));
}

void
Network::assertChannelFifo(const Message& msg, Tick arrive)
{
    if (_allowReorder)
        return;
    const std::uint64_t key = (std::uint64_t(msg.src) << 40) |
                              (std::uint64_t(msg.dst) << 8) |
                              std::uint64_t(msg.dstPort);
    Tick& last = _lastArrival[key];
    SBULK_ASSERT(arrive >= last,
                 "jitter hook reordered channel %u->%u port %u "
                 "(arrival %llu before %llu) without allowChannelReorder()",
                 msg.src, msg.dst, unsigned(msg.dstPort),
                 (unsigned long long)arrive, (unsigned long long)last);
    last = arrive;
}

std::vector<Tick>
Network::lookaheadMatrix(const ShardPlan& plan) const
{
    const std::uint32_t S = plan.shards();
    std::vector<Tick> m(std::size_t(S) * S, 0);
    for (std::uint32_t a = 0; a < S; ++a) {
        for (std::uint32_t b = a + 1; b < S; ++b) {
            Tick best = kMaxTick;
            for (std::uint32_t ta : plan.tilesOf(a))
                for (std::uint32_t tb : plan.tilesOf(b))
                    best = std::min(best, pairLookahead(ta, tb));
            // Symmetric by construction (both implementations' bounds
            // are distance metrics); fill both triangles.
            m[std::size_t(a) * S + b] = best;
            m[std::size_t(b) * S + a] = best;
        }
    }
    return m;
}

void
DirectNetwork::transmit(MessagePtr msg)
{
    const Tick now = curQueue().now();
    msg->sentAt = now;
    curTraffic().record(msg->cls, msg->bytes, msg->src == msg->dst ? 0 : 1);
    const Tick latency = (msg->src == msg->dst ? 1 : _latency) +
                         jitterFor(*msg);
    if (_jitter)
        assertChannelFifo(*msg, now + latency);
    Message* raw = msg.release();
    scheduleTileEvent(raw->dst, raw->src, latency,
                      [this, raw] { deliver(MessagePtr(raw)); });
}

namespace
{

/** Pick the most-square factorization w*h == n with w >= h. */
void
squarestDims(std::uint32_t n, std::uint32_t& w, std::uint32_t& h)
{
    h = 1;
    for (std::uint32_t d = 1; d * d <= n; ++d)
        if (n % d == 0)
            h = d;
    w = n / h;
}

} // namespace

TorusNetwork::TorusNetwork(EventQueue& eq, std::uint32_t num_nodes,
                           TorusConfig cfg)
    : Network(eq, num_nodes), _cfg(cfg)
{
    SBULK_ASSERT(num_nodes > 0);
    squarestDims(num_nodes, _width, _height);
    _linkFree.assign(std::size_t(num_nodes) * 4, 0);
    _linkBusy.assign(std::size_t(num_nodes) * 4, 0);
}

Tick
TorusNetwork::maxLinkBusy() const
{
    Tick best = 0;
    for (Tick busy : _linkBusy)
        best = std::max(best, busy);
    return best;
}

std::uint32_t
TorusNetwork::hopCount(NodeId a, NodeId b) const
{
    auto wrapDist = [](std::uint32_t p, std::uint32_t q, std::uint32_t dim) {
        std::uint32_t d = p > q ? p - q : q - p;
        return std::min(d, dim - d);
    };
    return wrapDist(xOf(a), xOf(b), _width) +
           wrapDist(yOf(a), yOf(b), _height);
}

NodeId
TorusNetwork::nextHop(NodeId cur, NodeId dst, Dir& dir_out) const
{
    std::uint32_t cx = xOf(cur), cy = yOf(cur);
    std::uint32_t dx = xOf(dst), dy = yOf(dst);
    if (cx != dx) {
        // X first; choose the shorter way around the ring.
        std::uint32_t fwd = (dx + _width - cx) % _width; // going east
        if (fwd <= _width - fwd) {
            dir_out = East;
            return nodeAt((cx + 1) % _width, cy);
        }
        dir_out = West;
        return nodeAt((cx + _width - 1) % _width, cy);
    }
    SBULK_ASSERT(cy != dy);
    std::uint32_t fwd = (dy + _height - cy) % _height; // going south
    if (fwd <= _height - fwd) {
        dir_out = South;
        return nodeAt(cx, (cy + 1) % _height);
    }
    dir_out = North;
    return nodeAt(cx, (cy + _height - 1) % _height);
}

void
TorusNetwork::transmit(MessagePtr msg)
{
    msg->sentAt = curQueue().now();
    curTraffic().record(msg->cls, msg->bytes, hopCount(msg->src, msg->dst));
    // Jitter hooks are serial-only (setDeliveryJitter and configureShards
    // assert it), so sharded runs always see jitter == 0 here.
    const Tick jitter = jitterFor(*msg);
    Message* raw = msg.release();
    if (raw->src == raw->dst) {
        // Same-tile communication bypasses the router fabric.
        scheduleTileEvent(raw->dst, raw->src, 1 + jitter,
                          [this, raw] { deliver(MessagePtr(raw)); });
        return;
    }
    raw->netHop = raw->src;
    if (jitter > 0) {
        // Jitter models injection-queue delay: the message waits at the
        // source NIC, then routes normally.
        scheduleTileEvent(raw->src, raw->src, jitter,
                          [this, raw] { route(raw); });
        return;
    }
    route(raw);
}

void
TorusNetwork::route(Message* msg)
{
    // Serialization: each link is busy for one cycle per flit.
    const Tick ser = std::max<Tick>(
        kMinSerCycles, (msg->bytes + _cfg.flitBytes - 1) / _cfg.flitBytes);
    const NodeId cur = msg->netHop;
    const Tick t = curQueue().now();

    // One event per hop, reserving each link at the tick the message
    // physically reaches its router. Reservation order on a link therefore
    // equals arrival order, which gives per-link FIFO — and the commit
    // protocols rely on the point-to-point ordering that follows from it.
    // (Merging uncontended hops into one precomputed-arrival event was
    // tried and reverted: it reserves downstream links at injection time,
    // before physically-earlier messages reach them, which can invert
    // same-pair delivery order and break protocol handshakes.) The hop
    // event captures only [this, msg] — the route cursor lives in
    // msg->netHop — so it fits EventFn's inline storage and the chain
    // allocates nothing.
    Dir dir;
    const NodeId next = nextHop(cur, msg->dst, dir);
    Tick& free_at = linkFree(cur, dir);
    const Tick depart = std::max(t + _cfg.routerLatency, free_at);
    free_at = depart + ser;
    _linkBusy[std::size_t(cur) * 4 + dir] += ser;
    const Tick delay = depart + ser + _cfg.linkLatency - t;
    if (next == msg->dst) {
        scheduleTileEvent(msg->dst, cur, delay,
                          [this, msg] { deliver(MessagePtr(msg)); });
        return;
    }
    msg->netHop = next;
    scheduleTileEvent(next, cur, delay, [this, msg] { route(msg); });
}

} // namespace sbulk
