/**
 * @file
 * Sharded conservative PDES scheduler for parallel-in-run simulation.
 *
 * The torus is partitioned into shard regions — contiguous tile ranges in
 * a run, or any tile->shard map a test sets in SystemConfig::shardMap —
 * and each shard owns one keyed EventQueue and one worker thread. Shards
 * synchronize with conservative lookahead windows, but the bound is
 * *pairwise*: no event a tile of shard A can schedule directly onto a tile
 * of shard B lands sooner than the network's minimum A->B delivery delay
 * (min region hop distance x link latency on the torus; the wire latency
 * on DirectNetwork). The engine closes that raw matrix over forwarding
 * paths (Floyd-Warshall), with the cheapest feedback cycle through each
 * shard on the diagonal, and each shard runs to its own horizon `min over
 * shards i with pending events of (head[i] + D[i][s])` — including its own
 * self term, which stops a wide window from outrunning replies to its own
 * sends. Far-apart shards therefore synchronize over much wider windows
 * than one global `min_head + link latency` boundary would allow.
 * Cross-shard events travel through per-(src,dst) SPSC ring channels that
 * the destination drains at the next window boundary.
 *
 * Determinism: events are ordered by (tick, canonical key) — see
 * EventQueue::enableKeyedOrder — which is a pure function of the simulated
 * machine, so the executed event sequence per tile and all end-of-run
 * statistics are identical for every shard count >= 2 and for every
 * tile->shard map. (`--shards 1` never constructs any of this: it runs one
 * global queue in sequence-number order, sharing the bucket insert, the
 * network's transmit/route code and the gauge code with sharded runs.)
 */

#ifndef SBULK_SIM_SHARD_HH
#define SBULK_SIM_SHARD_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/types.hh"

namespace sbulk
{

/** Shard the calling thread is currently simulating (0 outside engines). */
std::uint32_t currentShard();

/**
 * Partition of tiles [0, tiles) into `shards` regions. The default
 * constructor builds the contiguous equal-size split; the map constructor
 * accepts any assignment in which every shard owns at least one tile
 * (SystemConfig::shardMap, which tests use to check skewed regions).
 */
class ShardPlan
{
  public:
    /** Contiguous split: the first tiles%shards shards get one extra. */
    ShardPlan(std::uint32_t tiles, std::uint32_t shards);

    /** Explicit tile->shard map; every shard must own >= 1 tile. */
    ShardPlan(std::vector<std::uint32_t> map, std::uint32_t shards);

    std::uint32_t tiles() const { return std::uint32_t(_map.size()); }
    std::uint32_t shards() const { return _shards; }

    std::uint32_t shardOf(std::uint32_t tile) const { return _map[tile]; }

    /** Tiles shard @p s owns, ascending. */
    const std::vector<std::uint32_t>&
    tilesOf(std::uint32_t s) const
    {
        return _tilesOf[s];
    }

  private:
    void buildTileLists();

    std::uint32_t _shards;
    std::vector<std::uint32_t> _map;
    std::vector<std::vector<std::uint32_t>> _tilesOf;
};

/**
 * Per-shard clock publication slot, cache-line isolated: the owning shard
 * stores its post-drain head tick, queue clock, and finished-core count
 * before arriving at the decision barrier; every shard reads all slots
 * after it. The barrier's generation flip carries the happens-before
 * edge, so the slot fields themselves need only relaxed ordering.
 */
struct alignas(kCacheLineBytes) ShardClock
{
    std::atomic<Tick> head{0};
    std::atomic<Tick> now{0};
    std::atomic<std::uint32_t> done{0};
};

/**
 * Sense-reversing combining-tree barrier with the per-shard ShardClock
 * slots attached. Parties arrive at per-group leaf nodes (arity 4); the
 * last arriver at each node propagates one arrival up, and the root flips
 * a generation counter that waiters spin on. Splitting the arrival count
 * across tree nodes keeps high shard counts off a single contended
 * counter line, and the all-atomic implementation gives TSan-visible
 * happens-before edges: a plain write before arrive() on one thread is
 * ordered before any read after arrive() returns on every other thread.
 */
class TreeBarrier
{
  public:
    explicit TreeBarrier(std::uint32_t parties);

    /** Arrive as party @p s; returns once all parties arrived. */
    void
    arrive(std::uint32_t s)
    {
        const std::uint32_t gen = _gen.load(std::memory_order_acquire);
        signal(_leafOf[s]);
        // Spin briefly (windows are microseconds apart when every shard
        // has its own CPU), then yield: on oversubscribed or single-CPU
        // hosts the releasing shard needs our timeslice to make progress,
        // and a hot spin would stall the whole window loop for a full
        // scheduler quantum per crossing.
        std::uint32_t spins = 0;
        while (_gen.load(std::memory_order_acquire) == gen) {
            if (++spins >= 128) {
                std::this_thread::yield();
                spins = 0;
            }
        }
    }

    ShardClock& slot(std::uint32_t s) { return _slots[s]; }
    const ShardClock& slot(std::uint32_t s) const { return _slots[s]; }

  private:
    /** Children folded per tree node; 4 keeps the tree shallow while the
     *  per-node arrival counters stay on distinct cache lines. */
    static constexpr std::uint32_t kArity = 4;

    struct alignas(kCacheLineBytes) Node
    {
        std::atomic<std::uint32_t> count{0};
        /** Arrivals (parties or child nodes) this node waits for. */
        std::uint32_t parties = 0;
        std::uint32_t parent = 0;
        bool root = false;
    };

    void
    signal(std::uint32_t n)
    {
        // The acq_rel RMW chain up the tree plus the root's release store
        // forms the happens-before edge every waiter acquires through
        // _gen: all writes preceding any party's arrive() are visible
        // after the flip.
        while (true) {
            Node& node = _nodes[n];
            if (node.count.fetch_add(1, std::memory_order_acq_rel) + 1 !=
                node.parties)
                return;
            node.count.store(0, std::memory_order_relaxed);
            if (node.root) {
                _gen.fetch_add(1, std::memory_order_acq_rel);
                return;
            }
            n = node.parent;
        }
    }

    std::vector<Node> _nodes;
    /** Leaf node each party arrives at. */
    std::vector<std::uint32_t> _leafOf;
    std::vector<ShardClock> _slots;
    alignas(kCacheLineBytes) std::atomic<std::uint32_t> _gen{0};
};

/** One cross-shard event in flight between window boundaries. */
struct PendingEvent
{
    Tick when = 0;
    /** Canonical ordering key (EventQueue::allocKey on the origin tile). */
    std::uint64_t key = 0;
    /** Tile the event executes on (decides the destination shard). */
    std::uint32_t tile = 0;
    EventFn fn;
};

/**
 * Lock-free SPSC channel for one (src shard, dst shard) pair: a fixed
 * ring published with release stores and consumed with acquire loads, so
 * the producer->consumer edge is explicit to TSan and the steady state
 * allocates nothing. A full ring overflows into a spill vector, which is
 * safe because the window protocol additionally separates the producer's
 * run phase from the consumer's drain phase with a barrier.
 */
class SpscChannel
{
  public:
    SpscChannel() : _ring(kCapacity) {}
    SpscChannel(const SpscChannel&) = delete;
    SpscChannel& operator=(const SpscChannel&) = delete;

    /** Producer side (source shard's run phase). */
    void
    push(PendingEvent ev)
    {
        const std::size_t tail = _tail.load(std::memory_order_relaxed);
        if (tail - _head.load(std::memory_order_acquire) < kCapacity) {
            _ring[tail & (kCapacity - 1)] = std::move(ev);
            _tail.store(tail + 1, std::memory_order_release);
            return;
        }
        _spill.push_back(std::move(ev));
    }

    /** Consumer side (destination shard's drain phase). */
    template <typename Sink>
    void
    drain(Sink&& sink)
    {
        const std::size_t tail = _tail.load(std::memory_order_acquire);
        std::size_t head = _head.load(std::memory_order_relaxed);
        for (; head != tail; ++head)
            sink(_ring[head & (kCapacity - 1)]);
        _head.store(head, std::memory_order_release);
        if (_spill.empty())
            return;
        for (PendingEvent& ev : _spill)
            sink(ev);
        _spill.clear();
    }

  private:
    /** Ring entries; power of two. A window rarely crosses more than a
     *  few hundred events per channel, and the spill vector absorbs
     *  bursts beyond it. */
    static constexpr std::size_t kCapacity = 256;

    alignas(kCacheLineBytes) std::atomic<std::size_t> _head{0};
    alignas(kCacheLineBytes) std::atomic<std::size_t> _tail{0};
    std::vector<PendingEvent> _ring;
    /** Overflow outbox; producer-written in run phases, consumer-read in
     *  drain phases, with a barrier between the two. */
    std::vector<PendingEvent> _spill;
};

/**
 * Per-(src shard, dst shard) outboxes. A source pushes during its run
 * phase; the destination drains during its drain phase. Each channel is
 * single-producer single-consumer by construction, and execution re-sorts
 * drained events by (when, key) in the heap, so drain order across source
 * shards is irrelevant.
 */
class ShardChannels
{
  public:
    explicit ShardChannels(std::uint32_t shards)
        : _shards(shards), _chan(std::size_t(shards) * shards)
    {}

    void
    push(std::uint32_t src, std::uint32_t dst, PendingEvent ev)
    {
        _chan[std::size_t(src) * _shards + dst].push(std::move(ev));
    }

    /** Destination-side: move every inbound event into @p sink. */
    template <typename Sink>
    void
    drain(std::uint32_t dst, Sink&& sink)
    {
        for (std::uint32_t src = 0; src < _shards; ++src)
            _chan[std::size_t(src) * _shards + dst].drain(sink);
    }

  private:
    std::uint32_t _shards;
    std::vector<SpscChannel> _chan;
};

/**
 * The window loop: drives S shard queues on S threads (the caller's
 * thread doubles as shard 0) until every core is done, the tick limit is
 * hit, or the whole machine deadlocks.
 */
class ShardEngine
{
  public:
    /** Per-shard utilization counters (perfbench's shard.* metrics). */
    struct ShardStats
    {
        std::uint64_t events = 0;
        std::uint64_t windows = 0;
        /** Windows in which this shard executed no events (its horizon
         *  sat at or below its own head). */
        std::uint64_t emptyWindows = 0;
        /** Thread-CPU seconds inside runUntil (vs. boundary overhead).
         *  Measured with the per-thread CPU clock, not wall time: on an
         *  oversubscribed host a wall interval around runUntil also
         *  counts preemption by sibling shard threads, double-charging
         *  their work to this shard. serial wall / max busySec is the
         *  dedicated-core critical-path speedup the perf harness gates. */
        double busySec = 0;
        /** Wall seconds blocked in barrier arrivals (the synchronization
         *  tax the pairwise lookahead shrinks). */
        double stallSec = 0;
    };

    /**
     * @param queues One keyed EventQueue per shard.
     * @param lookahead Raw pairwise lookahead matrix, shards x shards:
     *        entry [i*S + s] is a conservative lower bound on the delay
     *        of any event shard i schedules directly onto shard s
     *        (Network::lookaheadMatrix). Off-diagonal entries must be
     *        >= 1; the diagonal is ignored. The engine closes the matrix
     *        over forwarding paths and derives the per-shard feedback
     *        cycle bound itself.
     * @param total_cores Stop once this many cores report done.
     * @param done_cores done_cores(s) -> finished cores among shard s's
     *        tiles; called only from shard s's thread at window
     *        boundaries.
     */
    ShardEngine(const ShardPlan& plan, std::vector<EventQueue*> queues,
                ShardChannels& chan, std::vector<Tick> lookahead,
                std::uint32_t total_cores,
                std::function<std::uint32_t(std::uint32_t)> done_cores);

    /**
     * Run to completion: windows advance until every core is done AND
     * every queue and channel has drained (in-flight protocol messages
     * deliver, so the machine ends quiescent), or until @p tick_limit.
     * @return The stop tick: the max tick any shard reached when the
     *         machine drained, or >= tick_limit on limit.
     */
    Tick run(Tick tick_limit);

    const std::vector<ShardStats>& stats() const { return _stats; }
    /** Wall-clock seconds of the whole run() (utilization denominator). */
    double wallSeconds() const { return _wallSec; }
    /** True when run() stopped because every core finished. */
    bool completed() const { return _completed; }

  private:
    void worker(std::uint32_t s, Tick tick_limit);

    const ShardPlan& _plan;
    std::vector<EventQueue*> _queues;
    ShardChannels& _chan;
    /** Pairwise lookahead matrix [src * shards + dst]. */
    const std::vector<Tick> _lookahead;
    const std::uint32_t _totalCores;
    std::function<std::uint32_t(std::uint32_t)> _doneCores;

    TreeBarrier _barrier;
    std::vector<ShardStats> _stats;
    std::atomic<Tick> _stopTick{0};
    bool _completed = false;
    double _wallSec = 0;
};

} // namespace sbulk

#endif // SBULK_SIM_SHARD_HH
