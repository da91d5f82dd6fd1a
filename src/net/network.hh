/**
 * @file
 * Network interface, per-class traffic accounting, and two implementations:
 * a contention-free fixed-latency network for unit tests and the 2D-torus
 * model used for evaluation (Table 2: 7-cycle links).
 */

#ifndef SBULK_NET_NETWORK_HH
#define SBULK_NET_NETWORK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/message.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace sbulk
{

/** Per-class message/byte/hop counters (Figures 18/19). */
class TrafficStats
{
    // The three counter arrays share one index space; a MsgClass value
    // outside [0, kNumMsgClasses) would silently corrupt neighbouring
    // counters, so every access is bounds-checked.
    static_assert(kNumMsgClasses == std::size_t(MsgClass::Other) + 1,
                  "TrafficStats arrays must cover every MsgClass");

    static std::size_t
    index(MsgClass cls)
    {
        const auto i = std::size_t(cls);
        SBULK_ASSERT(i < kNumMsgClasses, "invalid MsgClass %zu", i);
        return i;
    }

  public:
    void
    record(MsgClass cls, std::uint32_t bytes, std::uint32_t hops)
    {
        const auto i = index(cls);
        ++_messages[i];
        _bytes[i] += bytes;
        _hops[i] += hops;
    }

    std::uint64_t messages(MsgClass cls) const { return _messages[index(cls)]; }
    std::uint64_t bytes(MsgClass cls) const { return _bytes[index(cls)]; }
    std::uint64_t hops(MsgClass cls) const { return _hops[index(cls)]; }

    /** Fold another counter set in (sharded per-thread stats merge). */
    void
    merge(const TrafficStats& o)
    {
        for (std::size_t i = 0; i < kNumMsgClasses; ++i) {
            _messages[i] += o._messages[i];
            _bytes[i] += o._bytes[i];
            _hops[i] += o._hops[i];
        }
    }

    std::uint64_t
    totalMessages() const
    {
        std::uint64_t n = 0;
        for (auto m : _messages)
            n += m;
        return n;
    }

    void
    reset()
    {
        _messages.fill(0);
        _bytes.fill(0);
        _hops.fill(0);
    }

  private:
    std::array<std::uint64_t, kNumMsgClasses> _messages{};
    std::array<std::uint64_t, kNumMsgClasses> _bytes{};
    std::array<std::uint64_t, kNumMsgClasses> _hops{};
};

class Network;

/**
 * Interposition layer between message injection and the wire model, and
 * between wire delivery and handler dispatch.
 *
 * When installed (Network::setTransport), every send() is routed through
 * onSend() and every wire arrival through onArrive(); the layer decides
 * what actually reaches the wire (possibly delayed, duplicated, or
 * nothing at all) and what actually reaches the destination handler. The
 * one implementation lives in src/fault/: a deterministic fault injector
 * paired with a reliable-ordered (ARQ) recovery protocol. Without a
 * transport the network is a perfect reliable FIFO fabric and send()
 * reaches transmit() through a single pointer test.
 */
class TransportLayer
{
  public:
    explicit TransportLayer(Network& net) : _net(net) {}
    virtual ~TransportLayer() = default;
    TransportLayer(const TransportLayer&) = delete;
    TransportLayer& operator=(const TransportLayer&) = delete;

    /** A component injected @p msg (instead of Network::transmit). */
    virtual void onSend(MessagePtr msg) = 0;
    /** The wire delivered @p msg (instead of handler dispatch). */
    virtual void onArrive(MessagePtr msg) = 0;
    /**
     * Out-of-band nudge from a protocol watchdog: retransmit anything
     * still pending from @p node immediately, ignoring backoff timers.
     */
    virtual void kick(NodeId node) { (void)node; }

  protected:
    /** Put @p msg on the wire (the network's latency/contention model). */
    void wire(MessagePtr msg);
    /** Hand @p msg to its destination handler, bypassing interception. */
    void dispatch(MessagePtr msg);

    Network& _net;
};

/**
 * Abstract message transport between tiles.
 *
 * Components register one handler per (node, port); send() takes ownership
 * of the message and delivers it to the destination handler after the
 * model's latency.
 */
class Network
{
  public:
    using Handler = std::function<void(MessagePtr)>;

    explicit Network(EventQueue& eq, std::uint32_t num_nodes)
        : _eq(eq), _handlers(num_nodes)
    {}
    virtual ~Network() = default;
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Install the receive callback for @p port of tile @p node. */
    void
    registerHandler(NodeId node, Port port, Handler handler)
    {
        SBULK_ASSERT(node < _handlers.size());
        _handlers[node][std::size_t(port)] = std::move(handler);
    }

    /**
     * Inject @p msg; it is delivered to the destination handler later.
     * With a transport layer attached the message is handed to it first
     * (fault injection / reliable delivery); otherwise it goes straight
     * to the implementation's wire model.
     */
    void
    send(MessagePtr msg)
    {
        if (_transport) {
            _transport->onSend(std::move(msg));
            return;
        }
        transmit(std::move(msg));
    }

    /**
     * Attach (or detach, with null) the transport layer. Not owned; the
     * caller must detach before destroying the transport. Attaching does
     * not retroactively affect messages already on the wire.
     */
    void setTransport(TransportLayer* transport) { _transport = transport; }
    TransportLayer* transport() const { return _transport; }

    /**
     * Install an optional per-message delivery jitter source.
     *
     * Called once per send(); the returned extra ticks are added to the
     * message's delivery latency. The schedule-exploration checker
     * (src/check/) uses this to perturb message orderings beyond what
     * same-tick tie-breaks alone can produce. The hook must be a
     * deterministic function of its own state so runs replay from a seed.
     *
     * Null — the default — means *no jitter at all*: the network is then
     * a fixed-latency (Direct) or contention-only (Torus) model whose
     * deliveries on one (src, dst, port) channel always arrive in send
     * order. A jitter hook must preserve that per-channel FIFO ordering
     * (the protocols are entitled to it; src/check/'s ChannelFifoClamp is
     * the reference implementation) unless a fault plan explicitly
     * relaxes it via allowChannelReorder() — in which case the attached
     * transport layer is responsible for restoring order before dispatch.
     * DirectNetwork asserts this contract on every jittered delivery.
     *
     * Serial only: shard threads would call the hook unsynchronized, so
     * installing one on a sharded network (or sharding a jittered one,
     * see configureShards) panics.
     */
    void
    setDeliveryJitter(std::function<Tick(const Message&)> jitter)
    {
        SBULK_ASSERT(!jitter || !_shardPlan,
                     "delivery jitter requires a serial network");
        _jitter = std::move(jitter);
    }

    /**
     * Permit same-channel deliveries to leave the wire out of send order.
     * Only the fault planner sets this (src/fault/), and only when its
     * recovery transport re-sequences messages before dispatch; it
     * disables the FIFO assertion that otherwise guards jitter hooks.
     */
    void allowChannelReorder(bool allow) { _allowReorder = allow; }

    std::uint32_t numNodes() const { return std::uint32_t(_handlers.size()); }
    const TrafficStats& traffic() const { return _traffic; }
    TrafficStats& traffic() { return _traffic; }
    /** The queue tile-local work should schedule on: the calling shard's
     *  queue in sharded mode, the single global queue otherwise. */
    EventQueue& eventQueue() { return curQueue(); }

    /// @name Sharded PDES mode (src/sim/shard.hh; serial when unset)
    /// @{
    /**
     * Route deliveries through per-shard keyed queues and cross-shard
     * channels. @p queues holds one keyed EventQueue per shard; none of
     * the three referents are owned. Serial mode (never calling this)
     * schedules everything on the single global queue; the choice lives
     * only in curQueue(), curTraffic() and scheduleTileEvent().
     */
    void
    configureShards(const ShardPlan* plan, std::vector<EventQueue*> queues,
                    ShardChannels* chan)
    {
        SBULK_ASSERT(!plan || !_jitter,
                     "delivery jitter requires a serial network");
        _shardPlan = plan;
        _shardQs = std::move(queues);
        _shardChan = chan;
        _trafficShards.assign(plan ? plan->shards() : 0, TrafficStats{});
    }

    /**
     * Pairwise lookahead matrix for @p plan, shards x shards: entry
     * [a * S + b] bounds from below the delay of any event a tile of
     * shard a can schedule directly onto a tile of shard b, minimized
     * over the tile pairs of the two regions (pairLookahead). Regions
     * that are not adjacent get wider bounds than adjacent ones — the
     * engine's per-shard window horizons come from this.
     * The matrix is *raw*: diagonal entries are 0 and path effects are
     * ignored; ShardEngine closes it over forwarding paths and computes
     * the per-shard feedback-cycle diagonal itself.
     */
    std::vector<Tick> lookaheadMatrix(const ShardPlan& plan) const;

    /** After a sharded run: fold the per-shard counters into traffic(). */
    void
    foldShardTraffic()
    {
        for (const TrafficStats& t : _trafficShards)
            _traffic.merge(t);
        _trafficShards.assign(_trafficShards.size(), TrafficStats{});
    }

    /**
     * Schedule @p fn to run @p delay ticks from now at @p tile (it may
     * only touch that tile's state). In serial mode this is exactly
     * EventQueue::scheduleIn on the global queue; in sharded mode the
     * event is keyed with the calling tile as origin and routed to the
     * owning shard's queue or, across shards, into a window channel.
     * Callers must be executing on @p tile's shard or scheduling an event
     * *for* a tile they are allowed to message (network deliveries).
     */
    template <typename F>
    void
    scheduleAtTile(NodeId tile, Tick delay, F&& fn)
    {
        scheduleTileEvent(tile, tile, delay, std::forward<F>(fn));
    }
    /// @}

  protected:
    friend class TransportLayer;

    /** Implementation wire model: latency/contention, then deliver(). */
    virtual void transmit(MessagePtr msg) = 0;

    /**
     * A message left the wire: hand it to the transport layer (if any)
     * or directly to its destination handler.
     */
    void deliver(MessagePtr msg);

    /** Hand @p msg to its destination handler (immediately). */
    void dispatch(MessagePtr msg);

    /**
     * Shard-pair distance primitive behind lookaheadMatrix(): a lower
     * bound on the delay of any event a component at tile @p a can
     * schedule *directly* onto tile @p b (a != b) — multi-hop chains pass
     * through intermediate tiles and are bounded hop by hop.
     */
    virtual Tick pairLookahead(NodeId a, NodeId b) const = 0;

    /** Extra delivery delay for @p msg (0 without a jitter hook). */
    Tick jitterFor(const Message& msg) const
    {
        return _jitter ? _jitter(msg) : 0;
    }

    /**
     * FIFO-contract guard for jittered deliveries: panics if a jitter
     * hook reordered a (src, dst, port) channel without the fault
     * planner declaring it (allowChannelReorder). Called by
     * implementations at the point the arrival tick is known.
     */
    void assertChannelFifo(const Message& msg, Tick arrive);

    /** The queue the calling thread schedules on (its shard's, or the
     *  global serial queue). */
    EventQueue&
    curQueue()
    {
        return _shardPlan ? *_shardQs[currentShard()] : _eq;
    }

    /** The traffic counters the calling thread records into. */
    TrafficStats&
    curTraffic()
    {
        return _shardPlan ? _trafficShards[currentShard()] : _traffic;
    }

    /**
     * Sharded scheduling primitive: run @p fn at @p exec_tile after
     * @p delay, with the canonical key drawn from @p origin_tile (which
     * must be owned by the calling shard). Serial mode collapses to a
     * plain scheduleIn on the global queue.
     */
    template <typename F>
    void
    scheduleTileEvent(NodeId exec_tile, NodeId origin_tile, Tick delay,
                      F&& fn)
    {
        if (!_shardPlan) {
            _eq.scheduleIn(delay, std::forward<F>(fn));
            return;
        }
        const std::uint32_t src_shard = currentShard();
        EventQueue& q = *_shardQs[src_shard];
        const Tick when = q.now() + delay;
        const std::uint64_t key = q.allocKey(origin_tile);
        const std::uint32_t dst_shard = _shardPlan->shardOf(exec_tile);
        if (dst_shard == src_shard) {
            q.injectKeyed(when, key, exec_tile, std::forward<F>(fn));
        } else {
            _shardChan->push(
                src_shard, dst_shard,
                PendingEvent{when, key, exec_tile,
                             EventFn(std::forward<F>(fn))});
        }
    }

    EventQueue& _eq;
    TrafficStats _traffic;
    std::function<Tick(const Message&)> _jitter;
    /// @name Sharded-mode routing state (null/empty in serial mode)
    /// @{
    const ShardPlan* _shardPlan = nullptr;
    std::vector<EventQueue*> _shardQs;
    ShardChannels* _shardChan = nullptr;
    std::vector<TrafficStats> _trafficShards;
    /// @}

  private:
    std::vector<std::array<Handler, kNumPorts>> _handlers;
    TransportLayer* _transport = nullptr;
    bool _allowReorder = false;
    /** Per (src, dst, port) channel: latest arrival tick granted. */
    std::unordered_map<std::uint64_t, Tick> _lastArrival;
};

inline void
TransportLayer::wire(MessagePtr msg)
{
    _net.transmit(std::move(msg));
}

inline void
TransportLayer::dispatch(MessagePtr msg)
{
    _net.dispatch(std::move(msg));
}

/**
 * Contention-free network with a fixed point-to-point latency.
 *
 * Used by protocol unit tests, where deterministic timing makes message
 * orderings easy to construct, and as a best-case interconnect ablation.
 */
class DirectNetwork : public Network
{
  public:
    DirectNetwork(EventQueue& eq, std::uint32_t num_nodes, Tick latency = 10)
        : Network(eq, num_nodes), _latency(latency)
    {}

  protected:
    void transmit(MessagePtr msg) override;

    /** Every cross-tile delivery jumps src->dst in one schedule of
     *  exactly the wire latency. */
    Tick
    pairLookahead(NodeId a, NodeId b) const override
    {
        (void)a;
        (void)b;
        return _latency;
    }

  private:
    Tick _latency;
};

/** Configuration of the torus model. */
struct TorusConfig
{
    /** Per-hop link traversal latency, cycles (Table 2: 7). */
    Tick linkLatency = 7;
    /** Router pipeline latency per hop, cycles. */
    Tick routerLatency = 1;
    /** Link width: bytes accepted per cycle (flit size). */
    std::uint32_t flitBytes = 16;
};

/**
 * 2D torus with dimension-order (X then Y) routing and per-link
 * serialization/contention.
 *
 * Each directed link tracks when it next becomes free; a message occupies
 * each link on its path for ceil(bytes/flitBytes) cycles. This captures the
 * first-order congestion effects (hot links near centralized agents, bursts
 * of commit traffic) without a flit-level router model.
 */
class TorusNetwork : public Network
{
  public:
    TorusNetwork(EventQueue& eq, std::uint32_t num_nodes,
                 TorusConfig cfg = TorusConfig{});

    /** Minimal hop count between two tiles on the torus. */
    std::uint32_t hopCount(NodeId a, NodeId b) const;

    std::uint32_t width() const { return _width; }
    std::uint32_t height() const { return _height; }

    /** Busy cycles accumulated on the given directed link (0..3 = E,W,N,S
     *  out of @p node); divide by elapsed time for utilization. */
    Tick linkBusy(NodeId node, unsigned dir) const
    {
        SBULK_ASSERT(node < numNodes(), "linkBusy of unknown node %u", node);
        SBULK_ASSERT(dir < 4, "linkBusy direction %u out of range", dir);
        return _linkBusy[std::size_t(node) * 4 + dir];
    }

    /** The most-utilized link's busy cycles (hot-spot detection). */
    Tick maxLinkBusy() const;

  protected:
    void transmit(MessagePtr msg) override;

    /**
     * Distance-aware pairwise bound: hop routing schedules events only
     * onto grid-adjacent tiles (each hop costs >= routerLatency +
     * serialization + linkLatency), so hopCount x linkLatency is safe —
     * adjacent tiles reproduce the single-link bound, and tile pairs
     * further apart can never exchange a direct schedule at all, making
     * the wider bound vacuous there yet exactly what region-min distance
     * in lookaheadMatrix() needs.
     */
    Tick
    pairLookahead(NodeId a, NodeId b) const override
    {
        return Tick(hopCount(a, b)) * _cfg.linkLatency;
    }

  private:
    /** Directions of the four outgoing links of a router. */
    enum Dir : std::uint8_t { East, West, North, South };

    std::uint32_t xOf(NodeId n) const { return n % _width; }
    std::uint32_t yOf(NodeId n) const { return n / _width; }
    NodeId nodeAt(std::uint32_t x, std::uint32_t y) const
    {
        return y * _width + x;
    }

    /** Next hop from @p cur toward @p dst under X-then-Y routing. */
    NodeId nextHop(NodeId cur, NodeId dst, Dir& dir_out) const;

    Tick& linkFree(NodeId node, Dir d) { return _linkFree[node * 4 + d]; }

    /**
     * Advance @p msg one hop from msg->netHop, reserving the link at the
     * tick the message reaches the router (per-link FIFO — the protocols
     * depend on the point-to-point ordering this implies); delivers on
     * arrival at the destination. Allocation-free: the continuation
     * captures only {this, msg} and the cursor lives in the message.
     */
    void route(Message* msg);

    TorusConfig _cfg;
    std::uint32_t _width = 0;
    std::uint32_t _height = 0;
    std::vector<Tick> _linkFree;
    /** Cumulative serialization cycles per directed link. */
    std::vector<Tick> _linkBusy;
};

} // namespace sbulk

#endif // SBULK_NET_NETWORK_HH
