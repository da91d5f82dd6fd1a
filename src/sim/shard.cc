#include "sim/shard.hh"

#include <ctime>

#include <algorithm>
#include <chrono>
#include <thread>

namespace sbulk
{

namespace
{

thread_local std::uint32_t tls_shard = 0;

/** RAII shard identity for the worker's lifetime on this thread. */
struct ShardScope
{
    explicit ShardScope(std::uint32_t s) { tls_shard = s; }
    ~ShardScope() { tls_shard = 0; }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** CPU seconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID):
 *  what a busy interval costs on a dedicated core, however many sibling
 *  shard threads preempt it on this host. */
double
threadCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

Tick
satAdd(Tick a, Tick b)
{
    return a >= kMaxTick - b ? kMaxTick : a + b;
}

/**
 * Close the raw pairwise lookahead matrix over multi-shard forwarding
 * paths (Floyd-Warshall), writing the cheapest feedback cycle through
 * each shard into the diagonal.
 *
 * Both refinements are load-bearing. The raw entries are minimum
 * distances between tile *sets*, which do not obey the triangle
 * inequality (a path i -> j -> s can undercut the direct i -> s bound
 * for elongated regions), so horizons must use path-closed distances.
 * And a shard's own sends can round-trip: an event it executes at t can
 * spawn work on a neighbour that replies by t + (cheapest cycle), so a
 * window may never extend past head + D[s][s] — without the diagonal
 * term a wide window executes events that causally follow messages
 * still in flight back to it.
 */
std::vector<Tick>
closeLookahead(std::vector<Tick> m, std::uint32_t S)
{
    SBULK_ASSERT(m.size() == std::size_t(S) * S,
                 "lookahead matrix must be shards x shards");
    for (std::uint32_t i = 0; i < S; ++i) {
        for (std::uint32_t j = 0; j < S; ++j)
            SBULK_ASSERT(i == j || m[std::size_t(i) * S + j] >= 1,
                         "pairwise lookahead %u->%u must be positive", i,
                         j);
        m[std::size_t(i) * S + i] = kMaxTick;
    }
    for (std::uint32_t k = 0; k < S; ++k)
        for (std::uint32_t i = 0; i < S; ++i) {
            const Tick ik = m[std::size_t(i) * S + k];
            if (i == k || ik == kMaxTick)
                continue;
            for (std::uint32_t j = 0; j < S; ++j) {
                if (j == k || m[std::size_t(k) * S + j] == kMaxTick)
                    continue;
                Tick& ij = m[std::size_t(i) * S + j];
                ij = std::min(ij, satAdd(ik, m[std::size_t(k) * S + j]));
            }
        }
    return m;
}

} // namespace

std::uint32_t
currentShard()
{
    return tls_shard;
}

// -- ShardPlan -----------------------------------------------------------

ShardPlan::ShardPlan(std::uint32_t tiles, std::uint32_t shards)
    : _shards(shards)
{
    SBULK_ASSERT(shards >= 1 && shards <= tiles,
                 "bad shard plan: %u shards over %u tiles", shards, tiles);
    _map.resize(tiles);
    const std::uint32_t base = tiles / shards;
    const std::uint32_t rem = tiles % shards;
    const std::uint32_t big = rem * (base + 1);
    for (std::uint32_t t = 0; t < tiles; ++t)
        _map[t] = t < big ? t / (base + 1) : rem + (t - big) / base;
    buildTileLists();
}

ShardPlan::ShardPlan(std::vector<std::uint32_t> map, std::uint32_t shards)
    : _shards(shards), _map(std::move(map))
{
    SBULK_ASSERT(shards >= 1 && shards <= _map.size(),
                 "bad shard plan: %u shards over %zu tiles", shards,
                 _map.size());
    for (std::uint32_t t = 0; t < _map.size(); ++t)
        SBULK_ASSERT(_map[t] < shards,
                     "shard map sends tile %u to shard %u (%u shards)", t,
                     _map[t], shards);
    buildTileLists();
}

void
ShardPlan::buildTileLists()
{
    _tilesOf.assign(_shards, {});
    for (std::uint32_t t = 0; t < _map.size(); ++t)
        _tilesOf[_map[t]].push_back(t);
    for (std::uint32_t s = 0; s < _shards; ++s)
        SBULK_ASSERT(!_tilesOf[s].empty(),
                     "shard map leaves shard %u with no tiles", s);
}

// -- TreeBarrier ---------------------------------------------------------

TreeBarrier::TreeBarrier(std::uint32_t parties)
    : _leafOf(parties), _slots(parties)
{
    SBULK_ASSERT(parties >= 1, "barrier needs at least one party");
    // Level 0: parties group into leaves of kArity; each higher level
    // folds kArity child nodes into one, up to a single root. Nodes hold
    // atomics (non-movable), so size the whole tree up front.
    std::vector<std::uint32_t> widths{(parties + kArity - 1) / kArity};
    while (widths.back() > 1)
        widths.push_back((widths.back() + kArity - 1) / kArity);
    std::uint32_t total = 0;
    for (std::uint32_t w : widths)
        total += w;
    _nodes = std::vector<Node>(total);

    for (std::uint32_t p = 0; p < parties; ++p) {
        _leafOf[p] = p / kArity;
        ++_nodes[p / kArity].parties;
    }
    std::uint32_t level_base = 0;
    for (std::size_t l = 0; l + 1 < widths.size(); ++l) {
        const std::uint32_t next_base = level_base + widths[l];
        for (std::uint32_t i = 0; i < widths[l]; ++i) {
            _nodes[level_base + i].parent = next_base + i / kArity;
            ++_nodes[next_base + i / kArity].parties;
        }
        level_base = next_base;
    }
    _nodes[level_base].root = true;
}

// -- ShardEngine ---------------------------------------------------------

ShardEngine::ShardEngine(const ShardPlan& plan,
                         std::vector<EventQueue*> queues,
                         ShardChannels& chan, std::vector<Tick> lookahead,
                         std::uint32_t total_cores,
                         std::function<std::uint32_t(std::uint32_t)>
                             done_cores)
    : _plan(plan), _queues(std::move(queues)), _chan(chan),
      _lookahead(closeLookahead(std::move(lookahead), plan.shards())),
      _totalCores(total_cores), _doneCores(std::move(done_cores)),
      _barrier(plan.shards()), _stats(plan.shards())
{
    SBULK_ASSERT(_queues.size() == plan.shards(),
                 "one queue per shard required");
}

Tick
ShardEngine::run(Tick tick_limit)
{
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint32_t S = _plan.shards();
    std::vector<std::thread> threads;
    threads.reserve(S - 1);
    for (std::uint32_t s = 1; s < S; ++s)
        threads.emplace_back([this, s, tick_limit] {
            worker(s, tick_limit);
        });
    worker(0, tick_limit);
    for (auto& th : threads)
        th.join();
    _wallSec = secondsSince(t0);
    return _stopTick.load(std::memory_order_relaxed);
}

void
ShardEngine::worker(std::uint32_t s, Tick tick_limit)
{
    ShardScope scope(s);
    EventQueue& q = *_queues[s];
    ShardStats& st = _stats[s];
    const std::uint32_t S = _plan.shards();
    std::vector<Tick> heads(S);

    while (true) {
        // Phase A: all shards finished the previous run phase; drain the
        // inbound channels into the local queue and publish this shard's
        // head tick and finished-core count.
        auto b0 = std::chrono::steady_clock::now();
        _barrier.arrive(s);
        st.stallSec += secondsSince(b0);
        _chan.drain(s, [&](PendingEvent& ev) {
            q.injectKeyed(ev.when, ev.key, ev.tile, std::move(ev.fn));
        });
        ShardClock& slot = _barrier.slot(s);
        slot.head.store(q.headTick(), std::memory_order_relaxed);
        slot.now.store(q.now(), std::memory_order_relaxed);
        slot.done.store(_doneCores(s), std::memory_order_relaxed);

        // Phase B: heads published everywhere; every shard computes the
        // identical stop decision from the shared slots, then its own
        // pairwise horizon.
        b0 = std::chrono::steady_clock::now();
        _barrier.arrive(s);
        st.stallSec += secondsSince(b0);
        Tick min_head = kMaxTick;
        std::uint32_t done_total = 0;
        for (std::uint32_t i = 0; i < S; ++i) {
            heads[i] = _barrier.slot(i).head.load(std::memory_order_relaxed);
            min_head = std::min(min_head, heads[i]);
            done_total +=
                _barrier.slot(i).done.load(std::memory_order_relaxed);
        }
        if (min_head == kMaxTick) {
            // Nothing left anywhere: every queue is empty and every
            // channel was drained this window. With the cores finished,
            // that is a clean, quiescent end of run (the serial loop
            // stops at the final commit; windows keep going until the
            // in-flight protocol tail has delivered). With cores still
            // pending it is a machine deadlock, exactly as in serial.
            if (done_total < _totalCores) {
                SBULK_PANIC("sharded run deadlocked: all %u queues empty "
                            "with %u/%u cores done",
                            S, done_total, _totalCores);
            }
            if (s == 0) {
                _completed = true;
                Tick end = 0;
                for (std::uint32_t i = 0; i < S; ++i)
                    end = std::max(end,
                                   _barrier.slot(i).now.load(
                                       std::memory_order_relaxed));
                _stopTick.store(end, std::memory_order_relaxed);
            }
            break;
        }
        if (min_head >= tick_limit) {
            if (s == 0)
                _stopTick.store(min_head, std::memory_order_relaxed);
            break;
        }

        // Pairwise horizon over the path-closed matrix: this shard may
        // execute every event below the earliest tick at which anything
        // pending anywhere could still reach it. For another shard i
        // that is head[i] + D[i][s] (any causal chain out of i pays at
        // least the cheapest shard-path toward us); for this shard's own
        // head it is head[s] + D[s][s], the cheapest feedback cycle — a
        // reply to a message we send at t cannot land before t + D[s][s],
        // and without that term a wide window outruns its own round
        // trips. Every D entry is >= 1, so the shard holding the global
        // min head always clears at least one event and the machine makes
        // progress every window; shards whose horizon sits at or below
        // their own head simply run empty this round.
        Tick horizon = kMaxTick;
        for (std::uint32_t i = 0; i < S; ++i) {
            if (heads[i] == kMaxTick)
                continue;
            horizon = std::min(
                horizon,
                satAdd(heads[i], _lookahead[std::size_t(i) * S + s]));
        }
        const Tick window_end = std::min(horizon, tick_limit);

        // Run phase: execute everything below the window boundary.
        // Cross-shard schedules land in this shard's outboxes, drained by
        // their destinations after the next barrier.
        const double w0 = threadCpuSec();
        const std::uint64_t ran = q.runUntil(window_end);
        st.busySec += threadCpuSec() - w0;
        st.events += ran;
        ++st.windows;
        if (ran == 0)
            ++st.emptyWindows;
    }
    // All shards break out at the same window (the stop decision is a
    // pure function of the shared slots), so no final barrier is needed;
    // the join in run() is the last synchronization point.
}

} // namespace sbulk
