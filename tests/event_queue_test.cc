/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * cancellation, limits, and reentrant scheduling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "check/scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace sbulk
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowIsCorrectInsideCallback)
{
    EventQueue eq;
    Tick seen = 0;
    eq.schedule(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleIn(7, chain);
    };
    eq.scheduleIn(7, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 35u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    eq.run(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int fired = 0;
    auto h = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.cancel(h);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsHarmless)
{
    EventQueue eq;
    int fired = 0;
    auto h = eq.schedule(10, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.cancel(h);
    eq.cancel(h);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StepRunsExactlyOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ReturnsNumberExecuted)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(Tick(i), [] {});
    EXPECT_EQ(eq.run(), 10u);
}

TEST(EventQueue, CancelAfterRunIsStaleAndPendingStaysExact)
{
    EventQueue eq;
    int fired = 0;
    auto h = eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step()); // runs the tick-1 event; h is now stale
    EXPECT_EQ(eq.pending(), 1u);
    eq.cancel(h);
    EXPECT_EQ(eq.pending(), 1u) << "stale cancel must not perturb pending()";
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, DoubleCancelKeepsPendingExact)
{
    EventQueue eq;
    auto h = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.cancel(h);
    EXPECT_EQ(eq.pending(), 1u);
    eq.cancel(h);
    EXPECT_EQ(eq.pending(), 1u) << "repeat cancel must not double-decrement";
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_TRUE(eq.empty());
}

// Events more than the calendar window (1024 ticks) in the future take a
// different internal path (heap overflow) than near events (ring buckets).
// Order must be indistinguishable: global time order, insertion-order ties —
// including ties between a far-scheduled and a near-scheduled event at the
// same tick.
TEST(EventQueue, FarAndNearEventsInterleaveInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(2000, [&] { order.push_back(3); }); // far at schedule time
    eq.schedule(3, [&] { order.push_back(1); });    // near
    eq.schedule(1000, [&] {                         // near; at tick 1000,
        order.push_back(2);                         // 2000 is near too:
        eq.schedule(2000, [&] { order.push_back(4); });
    });
    eq.schedule(5000, [&] { order.push_back(5); }); // far, runs last
    eq.run();
    // The two tick-2000 events came from different structures; the one
    // scheduled first (while far) must still run first.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueue, ScatteredTicksDispatchSortedWithStableTies)
{
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 2000; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const Tick when = Tick((lcg >> 33) % 5000); // spans ring and heap
        eq.schedule(when, [&order, when, i] { order.emplace_back(when, i); });
    }
    EXPECT_EQ(eq.run(), 2000u);
    ASSERT_EQ(order.size(), 2000u);
    for (std::size_t i = 1; i < order.size(); ++i) {
        EXPECT_LE(order[i - 1].first, order[i].first);
        if (order[i - 1].first == order[i].first) {
            EXPECT_LT(order[i - 1].second, order[i].second)
                << "same-tick events must run in insertion order";
        }
    }
}

namespace
{

/** Always picks the highest-index (latest-scheduled) ready event. */
class PickLastPolicy : public SchedulePolicy
{
  public:
    std::size_t chooseNext(std::size_t count) override { return count - 1; }
};

} // namespace

// A policy batch at one tick must contain every ready event regardless of
// which internal structure held it, indexed in ascending schedule order.
TEST(EventQueue, PolicyBatchSpansNearAndFarEvents)
{
    EventQueue eq;
    PickLastPolicy policy;
    eq.setSchedulePolicy(&policy);
    std::vector<int> order;
    eq.schedule(2000, [&] { order.push_back(0); }); // far at schedule time
    eq.schedule(1000, [&] {
        // At tick 1000 the second tick-2000 event is near. Both end up in
        // the same batch; pick-last runs the later-scheduled one first.
        eq.schedule(2000, [&] { order.push_back(1); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

namespace
{

std::uint64_t
keyOf(std::uint32_t tile, std::uint64_t n)
{
    return (std::uint64_t(tile) << 48) | n;
}

} // namespace

// Keyed (sharded) mode orders same-tick events by canonical key, not by
// insertion order, in both the ring and the heap, and across the two.
TEST(EventQueue, KeyedInjectionDispatchesInKeyOrder)
{
    std::vector<std::uint64_t> tile_seq(4, 0);
    EventQueue eq;
    eq.enableKeyedOrder(&tile_seq);
    std::vector<std::uint64_t> order;
    std::vector<std::uint32_t> tiles;
    auto record = [&] {
        order.push_back(eq.currentKey());
        tiles.push_back(eq.execTile());
    };
    // Near (ring) at tick 5 and far (heap) at tick 3000, keys shuffled.
    for (Tick when : {Tick(5), Tick(3000)}) {
        for (std::uint64_t k :
             {keyOf(2, 0), keyOf(0, 1), keyOf(3, 0), keyOf(0, 0), keyOf(1, 5)})
            eq.injectKeyed(when, k, std::uint32_t(k >> 48), record);
    }
    // Tick 2500 holds a far entry; at tick 2000 a smaller key joins it
    // through the ring and must still run first.
    eq.injectKeyed(2500, keyOf(3, 9), 3, record);
    eq.injectKeyed(2000, keyOf(2, 9), 2, [&] {
        record();
        eq.injectKeyed(2500, keyOf(1, 9), 1, record);
    });
    eq.run();
    const std::vector<std::uint64_t> sorted = {
        keyOf(0, 0), keyOf(0, 1), keyOf(1, 5), keyOf(2, 0), keyOf(3, 0)};
    std::vector<std::uint64_t> want = sorted;
    want.insert(want.end(), {keyOf(2, 9), keyOf(1, 9), keyOf(3, 9)});
    want.insert(want.end(), sorted.begin(), sorted.end());
    EXPECT_EQ(order, want);
    ASSERT_EQ(tiles.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(tiles[i], std::uint32_t(want[i] >> 48));
}

// Keyed schedule() stamps the key from the current execution tile: the
// one set by setExecTile outside dispatch, the running event's inside.
TEST(EventQueue, KeyedScheduleStampsKeysFromExecTile)
{
    std::vector<std::uint64_t> tile_seq(4, 0);
    EventQueue eq;
    eq.enableKeyedOrder(&tile_seq);
    std::vector<std::uint64_t> order;
    eq.setExecTile(2);
    eq.schedule(10, [&] {
        order.push_back(eq.currentKey());
        eq.scheduleIn(0, [&] { order.push_back(eq.currentKey()); });
    });
    eq.setExecTile(1);
    eq.schedule(10, [&] {
        order.push_back(eq.currentKey());
        EXPECT_EQ(eq.execTile(), 1u);
    });
    eq.run();
    // Tile 1's key sorts first although it was scheduled second; the
    // nested schedule runs on tile 2 and takes its next counter value.
    EXPECT_EQ(order,
              (std::vector<std::uint64_t>{keyOf(1, 0), keyOf(2, 0),
                                          keyOf(2, 1)}));
    EXPECT_EQ(tile_seq, (std::vector<std::uint64_t>{0, 1, 2, 0}));
}

// Keyed buckets take O(1) appends in any key order and are sorted once,
// when the scan reaches their tick; only inserts into that sorted tick walk
// to their place. Drive a keyed queue the way a shard does — windows of
// runUntil with channel injections at the head tick between them — and
// check every dispatch against a sorted (when, key) reference. Callbacks
// add out-of-order future events from many tiles, zero-delay same-tick
// events, far events that tie on tick with later ring inserts, and cancel
// pending events while their buckets are still unsorted.
TEST(EventQueue, KeyedRandomScheduleMatchesSortedReference)
{
    constexpr std::uint32_t kTiles = 8;
    constexpr std::uint64_t kEvents = 40'000;
    std::vector<std::uint64_t> tile_seq(kTiles, 0);
    EventQueue eq;
    eq.enableKeyedOrder(&tile_seq);
    Rng rng(7);
    std::set<std::pair<Tick, std::uint64_t>> pending;
    /** Events made with schedule(), the ones that can be cancelled. */
    struct Scheduled
    {
        Tick when;
        std::uint64_t key;
        EventQueue::EventHandle handle;
    };
    std::vector<Scheduled> scheduled;
    std::uint64_t dispatched = 0;
    std::uint64_t cancelled = 0;
    std::function<void()> body;

    auto delay = [&]() -> Tick {
        switch (rng.below(4)) {
          case 0: return 0;
          case 1: return rng.between(1, 8);
          case 2: return rng.between(1, 80);
          default: return rng.between(1000, 1100); // heap, then ring ties
        }
    };
    auto inject = [&](Tick when) {
        const std::uint32_t tile = std::uint32_t(rng.below(kTiles));
        const std::uint64_t key = eq.allocKey(tile);
        eq.injectKeyed(when, key, tile, body);
        pending.emplace(when, key);
    };
    auto act = [&] {
        const Tick when = eq.now() + delay();
        switch (rng.below(3)) {
          case 0: { // scheduled from the running (or a chosen) tile
            const std::uint32_t tile = eq.execTile();
            const std::uint64_t key = keyOf(tile, tile_seq[tile]);
            scheduled.push_back({when, key, eq.schedule(when, body)});
            pending.emplace(when, key);
            break;
          }
          case 1:
            inject(when);
            break;
          default: { // cancel a random earlier schedule if still pending
            if (scheduled.empty())
                break;
            const Scheduled& e = scheduled[rng.below(scheduled.size())];
            if (pending.erase({e.when, e.key})) {
                eq.cancel(e.handle);
                ++cancelled;
            }
            break;
          }
        }
    };
    body = [&] {
        ASSERT_FALSE(pending.empty());
        EXPECT_EQ(*pending.begin(), std::make_pair(eq.now(), eq.currentKey()))
            << "dispatch " << dispatched;
        pending.erase(pending.begin());
        ++dispatched;
        if (dispatched < kEvents) {
            for (std::uint64_t n = rng.below(3); n > 0; --n)
                act();
        }
    };

    while (!eq.empty() || dispatched < kEvents) {
        // Window boundary: headTick() sorts the head bucket; channel
        // injections then land both at that (sorted) tick and beyond.
        const Tick head = eq.empty() ? eq.now() : eq.headTick();
        if (dispatched < kEvents) {
            for (std::uint64_t n = rng.below(4); n > 0; --n)
                inject(head + (rng.chance(0.5) ? 0 : delay()));
            eq.setExecTile(std::uint32_t(rng.below(kTiles)));
            act();
        }
        eq.runUntil(head + rng.between(1, 12));
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_GE(dispatched, kEvents);
    EXPECT_GT(cancelled, 0u);
}

TEST(EventQueue, DeterministicAcrossRuns)
{
    auto trace = [] {
        EventQueue eq;
        std::vector<Tick> ticks;
        std::function<void(int)> spawn = [&](int depth) {
            ticks.push_back(eq.now());
            if (depth > 0) {
                eq.scheduleIn(3, [&, depth] { spawn(depth - 1); });
                eq.scheduleIn(3, [&, depth] { spawn(depth - 1); });
            }
        };
        eq.schedule(0, [&] { spawn(4); });
        eq.run();
        return ticks;
    };
    EXPECT_EQ(trace(), trace());
}

namespace
{

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/**
 * Run a branching spawn tree with heavy same-tick collisions on @p eq and
 * fold every dispatch (tick, node id) into an FNV-1a hash — a compact
 * fingerprint of the dispatch order, in the spirit of the checker's
 * schedule hashes.
 */
std::uint64_t
dispatchHash(EventQueue& eq)
{
    std::uint64_t h = kFnvOffset;
    auto mark = [&h](std::uint64_t v) {
        h = (h ^ v) * kFnvPrime;
    };
    std::function<void(int, int)> spawn = [&](int id, int depth) {
        mark((std::uint64_t(eq.now()) << 16) | std::uint64_t(id));
        if (depth > 0) {
            eq.scheduleIn(2, [&, id, depth] { spawn(id * 2, depth - 1); });
            eq.scheduleIn(2, [&, id, depth] { spawn(id * 2 + 1, depth - 1); });
        }
    };
    eq.schedule(0, [&] { spawn(1, 6); });
    eq.run();
    return h;
}

} // namespace

// The three dispatch modes the simulator runs under — default FIFO, seeded
// random exploration, and trace replay — must each be deterministic, and a
// replayed trace must reproduce the recorded run's dispatch order exactly.
TEST(EventQueue, FifoDispatchHashIsStable)
{
    EventQueue a, b;
    EXPECT_EQ(dispatchHash(a), dispatchHash(b));
}

TEST(EventQueue, RandomSchedulerSameSeedSameDispatchOrder)
{
    auto once = [](std::uint64_t seed, std::uint64_t* schedule_hash) {
        EventQueue eq;
        check::RandomScheduler sched(seed, 0, eq);
        eq.setSchedulePolicy(&sched);
        const std::uint64_t h = dispatchHash(eq);
        *schedule_hash = sched.trace().hash();
        return h;
    };
    std::uint64_t s1 = 0, s2 = 0, s3 = 0;
    const std::uint64_t h1 = once(9, &s1);
    const std::uint64_t h2 = once(9, &s2);
    const std::uint64_t h3 = once(10, &s3);
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(s1, s2);
    // A different seed explores a different interleaving of this
    // collision-heavy workload (not guaranteed in general, but stable for
    // these fixed seeds — a change means the decision stream shifted).
    EXPECT_NE(h1, h3);
}

TEST(EventQueue, ReplaySchedulerReproducesRandomRun)
{
    check::ScheduleTrace recorded;
    std::uint64_t random_hash = 0;
    {
        EventQueue eq;
        check::RandomScheduler sched(11, 0, eq);
        eq.setSchedulePolicy(&sched);
        random_hash = dispatchHash(eq);
        recorded = sched.trace();
    }
    EventQueue eq;
    check::ReplayScheduler replay(recorded, recorded.decisions.size(), eq);
    eq.setSchedulePolicy(&replay);
    EXPECT_EQ(dispatchHash(eq), random_hash);
    EXPECT_EQ(replay.trace().hash(), recorded.hash())
        << "full-prefix replay must re-execute the trace byte-for-byte";
}

} // namespace
} // namespace sbulk
