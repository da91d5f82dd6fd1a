/**
 * @file
 * Deterministic discrete-event simulation kernel.
 *
 * A serial run drives the whole machine from one EventQueue; a sharded run
 * (src/sim/shard.hh) gives each shard its own queue in keyed mode, which
 * differs only in where tie-break tokens come from (below). Events are
 * plain callbacks scheduled at an absolute Tick. Same-tick ordering is an
 * explicit, documented policy rather than an accident of the underlying
 * container:
 *
 *  - Default (no SchedulePolicy installed): insertion-order FIFO. Every
 *    event carries a monotonically increasing sequence number, and ties at
 *    the same tick run in ascending sequence order. A simulation with the
 *    same inputs therefore always replays identically.
 *  - With a SchedulePolicy installed, the policy chooses which of the
 *    ready (earliest-tick) events runs next. This is the hook the
 *    schedule-exploration checker (src/check/) uses to enumerate distinct
 *    legal interleavings and to replay a recorded one byte-for-byte.
 *
 * Storage is allocation-light: callbacks live in a slab of reusable slots
 * recycled through a free list, so a steady-state simulation schedules
 * millions of events with no allocation beyond high-water growth, and
 * cancel() is O(1) (a flag on the slot; the entry is recycled when it
 * surfaces).
 *
 * Time ordering is a calendar ring with a heap overflow. Almost every event
 * in a simulation is scheduled a handful of ticks out (core ops, cache
 * latencies, network hops), so events whose tick falls within kRingTicks of
 * the scan cursor are linked into a per-tick bucket list: O(1) append, O(1)
 * dequeue, no sifting. Only far-future events (long backoffs, start skews,
 * tick limits) overflow into a binary heap of compact (tick, seq, slot)
 * keys. Dispatch always merges the ring's earliest bucket head with the
 * heap top by (tick, seq), so the run order is exactly the documented one
 * regardless of which structure held an event.
 *
 * A bucket is in sequence order whenever the scan dispatches from it.
 * Serial sequence numbers only grow, so appending keeps every serial
 * bucket sorted for free. Keyed buckets collect keys from every tile of a
 * shard in any order: a keyed insert into a future tick just appends, and
 * the scan sorts the bucket once when it reaches that tick (sortBucket).
 * Only inserts at the tick already sorted (zero-delay schedules, channel
 * injections at the scan tick) walk to their place (insertSorted).
 */

#ifndef SBULK_SIM_EVENT_QUEUE_HH
#define SBULK_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace sbulk
{

/**
 * Pluggable same-tick tie-break policy.
 *
 * When several pending events share the earliest tick, the queue presents
 * them as a batch indexed 0..count-1 in insertion (sequence) order and asks
 * the policy which one runs next. The remaining events stay pending: events
 * scheduled *by* the chosen callback at the same tick join the next batch,
 * so the policy sees every legal interleaving of same-tick work.
 *
 * Implementations must be deterministic functions of their own state (e.g.
 * a seeded RNG or a recorded trace) for runs to be reproducible.
 */
class SchedulePolicy
{
  public:
    virtual ~SchedulePolicy() = default;

    /**
     * Choose among @p count ready events (all at the earliest tick,
     * ordered by ascending sequence number).
     * @return Index in [0, count) of the event to run next.
     */
    virtual std::size_t chooseNext(std::size_t count) = 0;
};

/**
 * A time-ordered queue of callbacks driving the whole simulation.
 *
 * Components capture what they need in the callback; there is no Event class
 * hierarchy to subclass. Cancellation is supported through EventHandle.
 */
class EventQueue
{
  public:
    /**
     * Opaque ticket identifying a scheduled event, usable to cancel it.
     * Encodes (slot generation << 32 | slot index); a handle whose event
     * already ran or was cancelled goes stale and cancel() ignores it.
     */
    using EventHandle = std::uint64_t;

    EventQueue() { _ring.fill(Bucket{}); }
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /// @name Keyed canonical ordering (sharded PDES mode; see DESIGN.md)
    /// @{
    /**
     * Switch the queue to keyed ordering for parallel-in-run simulation.
     *
     * In keyed mode every event's tie-break token is not a queue-local
     * insertion sequence but a *canonical key*:
     * (origin tile << 48) | per-origin-tile counter. Keys are globally
     * unique and — because each tile's counter is only ever advanced by
     * the shard that owns the tile — the (when, key) execution order is a
     * pure function of the simulated machine, identical for any shard
     * count. Buckets dispatch in this token's order in both modes; keyed
     * ones are sorted once, when the scan reaches them (see enqueueEntry).
     *
     * @param tile_seq Per-tile key counters, shared by all shard queues
     *        (each entry is written only by the owning shard's thread).
     */
    void
    enableKeyedOrder(std::vector<std::uint64_t>* tile_seq)
    {
        SBULK_ASSERT(!_policy, "SchedulePolicy requires serial mode");
        SBULK_ASSERT(empty(), "enable keyed ordering before scheduling");
        _keyed = true;
        _tileSeq = tile_seq;
    }

    bool keyed() const { return _keyed; }

    /**
     * Tile attribution for events scheduled outside any dispatch (system
     * construction): subsequent schedule() calls originate at @p tile.
     * During dispatch the attribution tracks the running event's tile.
     */
    void setExecTile(std::uint32_t tile) { _execTile = tile; }
    std::uint32_t execTile() const { return _execTile; }

    /** Allocate the next canonical key originating at @p tile. */
    std::uint64_t
    allocKey(std::uint32_t tile)
    {
        return (std::uint64_t(tile) << 48) | (*_tileSeq)[tile]++;
    }

    /**
     * Insert an event with an explicit canonical key and execution tile
     * (cross-tile schedules: network deliveries, window-boundary channel
     * injection). The key must come from allocKey() on the *originating*
     * tile's owner shard.
     */
    template <typename F>
    void
    injectKeyed(Tick when, std::uint64_t key, std::uint32_t exec_tile,
                F&& fn)
    {
        SBULK_ASSERT(_keyed, "injectKeyed on a serial queue");
        SBULK_ASSERT(when >= _now,
                     "keyed injection in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)_now);
        insert(when, key, exec_tile, std::forward<F>(fn));
    }

    /** Earliest pending tick (kMaxTick when the queue is empty). */
    Tick
    headTick()
    {
        const Src src = peekSource();
        return src == Src::None ? kMaxTick : nextWhen(src);
    }

    /**
     * Execute every pending event with when < @p end (one conservative
     * lookahead window). Returns the number of events executed.
     */
    std::uint64_t
    runUntil(Tick end)
    {
        std::uint64_t executed = 0;
        while (true) {
            const Src src = peekSource();
            if (src == Src::None || nextWhen(src) >= end)
                break;
            dispatchSlot(popFrom(src));
            ++executed;
        }
        return executed;
    }

    /** Canonical key of the event currently dispatching (keyed mode). */
    std::uint64_t currentKey() const { return _curKey; }
    /** Per-event record sub-counter for metric journaling (keyed mode):
     *  monotone within one event's dispatch, reset at each dispatch. */
    std::uint32_t nextJournalSub() { return _journalSub++; }
    /// @}

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * Accepts any void() callable; small trivially-copyable closures are
     * stored inline in the slab (see EventFn).
     *
     * @param when Absolute tick; must be >= now().
     * @param fn Callback to invoke.
     * @return Handle that can be passed to cancel().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F&& fn)
    {
        SBULK_ASSERT(when >= _now,
                     "scheduling in the past: when=%llu now=%llu",
                     (unsigned long long)when, (unsigned long long)_now);
        // Keyed mode: the creating event's tile stamps the key, and
        // locally-scheduled events always execute on the same tile
        // (cross-tile scheduling goes through the network).
        return insert(when, _keyed ? allocKey(_execTile) : _nextSeq++,
                      _execTile, std::forward<F>(fn));
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delta, F&& fn)
    {
        return schedule(_now + delta, std::forward<F>(fn));
    }

    /**
     * Cancel a previously-scheduled event.
     *
     * Exact and idempotent: cancelling a handle whose event already ran,
     * or cancelling the same handle twice, is a no-op (the generation
     * stored in the handle no longer matches the slot). The callback's
     * captures are released immediately.
     */
    void
    cancel(EventHandle h)
    {
        const std::uint32_t idx = std::uint32_t(h);
        if (idx >= _slots.size())
            return;
        Slot& s = _slots[idx];
        if (s.gen != std::uint32_t(h >> 32) || s.cancelled)
            return; // stale: already ran, recycled, or cancelled before
        s.cancelled = true;
        s.fn = nullptr;
        SBULK_ASSERT(_live > 0, "cancel accounting underflow");
        --_live;
    }

    /** Number of events scheduled but not yet run or cancelled. Exact:
     *  stale and repeated cancellations do not perturb the count. */
    std::size_t pending() const { return _live; }

    /** True when no runnable events remain. */
    bool empty() const { return _live == 0; }

    /**
     * Install (or clear, with nullptr) the same-tick tie-break policy.
     *
     * Not owned. Null restores the default insertion-order FIFO, which is
     * also the zero-overhead fast path. Install before running events —
     * switching policies mid-run changes which interleaving is explored
     * but is otherwise safe.
     */
    void
    setSchedulePolicy(SchedulePolicy* policy)
    {
        SBULK_ASSERT(!_keyed || !policy,
                     "schedule-exploration policies are serial-only");
        _policy = policy;
    }
    SchedulePolicy* schedulePolicy() const { return _policy; }

    /**
     * Run events in time order until the queue drains or @p limit is hit.
     *
     * @param limit Stop once now() would exceed this tick.
     * @return Number of events executed.
     */
    std::uint64_t
    run(Tick limit = kMaxTick)
    {
        std::uint64_t executed = 0;
        while (true) {
            const Src src = peekSource();
            if (src == Src::None || nextWhen(src) > limit)
                break;
            dispatchSlot(_policy ? popPolicyChoice(src) : popFrom(src));
            ++executed;
        }
        return executed;
    }

    /**
     * Run a single event (the earliest pending one; under a SchedulePolicy,
     * the policy's pick among the earliest).
     *
     * Defined inline (with the whole dispatch chain) so per-event drivers
     * like System::run compile down to one loop without cross-TU calls.
     *
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        const Src src = peekSource();
        if (src == Src::None)
            return false;
        dispatchSlot(_policy ? popPolicyChoice(src) : popFrom(src));
        return true;
    }

  private:
    /** Ring window: events with when - _scanTick < kRingTicks live in the
     *  calendar; the rest overflow to the heap. Power of two; sized to
     *  cover every short-latency schedule the simulator issues while the
     *  bucket array (8 bytes each) stays cache-resident. */
    static constexpr Tick kRingTicks = 1024;
    /** Null link / bucket terminator for the intrusive slot lists. */
    static constexpr std::uint32_t kNilLink = 0xffffffffu;

    /**
     * One slab entry. The callback never moves while queued: both the ring
     * (which links slots by index) and the heap (which orders compact
     * copies of the key) leave the slab in place; it is only touched to
     * run, cancel, or recycle a callback. The ordering key (when, seq)
     * lives here so ring entries need no side storage.
     */
    struct Slot
    {
        EventFn fn;
        Tick when = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        /** Next slot in the same ring bucket (kNilLink at the tail). */
        std::uint32_t next = kNilLink;
        /** Tile the event executes on (meaningful in keyed mode). */
        std::uint32_t execTile = 0;
        bool cancelled = false;
    };

    /**
     * A calendar bucket: list of slots scheduled at one tick. Serial
     * buckets are always in ascending sequence order; a keyed bucket is
     * put in that order when the scan reaches its tick (see enqueueEntry),
     * so draining head-first is exactly the documented same-tick order.
     */
    struct Bucket
    {
        std::uint32_t head = kNilLink;
        std::uint32_t tail = kNilLink;
    };

    /**
     * Heap element: the full ordering key plus the owning slot. Keeping
     * the key in the entry makes sift comparisons touch only the
     * contiguous heap array — no pointer chase per comparison — and sift
     * moves shuffle 24-byte PODs instead of callbacks.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Where the next event to dispatch currently lives. */
    enum class Src : std::uint8_t { None, Ring, Heap };

    /**
     * Heap order: earliest tick first; equal ticks by ascending sequence
     * number (insertion-order FIFO). This is the documented default
     * same-tick policy, not an implementation accident — replay traces and
     * the batch presented to a SchedulePolicy both depend on it.
     */
    static bool
    before(const HeapEntry& a, const HeapEntry& b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }

    /** Put @p fn in a free slot filed under (@p when, @p seq), to run on
     *  @p exec_tile; return its handle. */
    template <typename F>
    EventHandle
    insert(Tick when, std::uint64_t seq, std::uint32_t exec_tile, F&& fn)
    {
        std::uint32_t idx;
        if (!_free.empty()) {
            idx = _free.back();
            _free.pop_back();
        } else {
            idx = std::uint32_t(_slots.size());
            _slots.emplace_back();
        }
        Slot& s = _slots[idx];
        s.fn = std::forward<F>(fn);
        s.cancelled = false;
        s.execTile = exec_tile;
        enqueueEntry(idx, when, seq);
        ++_live;
        return (EventHandle(s.gen) << 32) | idx;
    }

    /**
     * File the slot under its tick: calendar ring when the tick is within
     * the scan window, heap otherwise. The unsigned comparison also routes
     * when < _scanTick (possible only for re-queued policy-batch entries
     * after the scan overshot, see peekSource) to the heap, which is
     * always correct.
     *
     * Ring-bucket uniqueness: every ring entry's tick is in
     * [_scanTick, _scanTick + kRingTicks) — enforced here, preserved as
     * _scanTick only advances — so two entries in one bucket would have to
     * differ by a multiple of kRingTicks, which that half-open window
     * cannot contain.
     *
     * A bucket is therefore one tick's events. Every insert appends in
     * O(1) except one into _sortedTick, the keyed bucket the scan has
     * already sorted, which walks to its place out of line. Serial
     * sequence numbers only grow and a policy re-queue refills a drained
     * bucket in ascending order, so serial appends keep their buckets in
     * order and _sortedTick never leaves kMaxTick; keyed appends are put
     * in order by sortBucket when the scan reaches their tick.
     */
    void
    enqueueEntry(std::uint32_t idx, Tick when, std::uint64_t seq)
    {
        Slot& s = _slots[idx];
        s.when = when;
        s.seq = seq;
        if (when - _scanTick < kRingTicks) {
            s.next = kNilLink;
            Bucket& b = _ring[when & (kRingTicks - 1)];
            if (b.tail == kNilLink) {
                b.head = b.tail = idx;
            } else if (when != _sortedTick) {
                _slots[b.tail].next = idx;
                b.tail = idx;
            } else {
                insertSorted(b, idx);
            }
            ++_ringCount;
        } else {
            heapPush(HeapEntry{when, seq, idx});
        }
    }

    /** Link @p idx into the sorted, non-empty bucket @p b at its sequence
     *  position (keyed inserts at _sortedTick). */
    void insertSorted(Bucket& b, std::uint32_t idx);

    /** Put the keyed bucket at _scanTick in sequence order and make it
     *  _sortedTick (peekSource, on first reaching the tick). */
    void sortBucket(Bucket& b);

    /** Unlink and return the head slot of @p b (must be non-empty). */
    std::uint32_t
    ringPopHead(Bucket& b)
    {
        const std::uint32_t idx = b.head;
        b.head = _slots[idx].next;
        if (b.head == kNilLink)
            b.tail = kNilLink;
        --_ringCount;
        return idx;
    }

    /**
     * Recycle cancelled entries surfacing at either structure's front and
     * report where the earliest pending event lives. Advances _scanTick to
     * the ring's first live bucket, but never past the heap top's tick:
     * the heap event runs first anyway, and keeping the cursor low lets
     * events its callback schedules still use the ring.
     *
     * Forced inline: the shard worker calls it from both headTick() and
     * runUntil(), where GCC's size limits would otherwise emit it out of
     * line, a call per dispatched event.
     */
    [[gnu::always_inline]] Src
    peekSource()
    {
        while (!_heap.empty() && _slots[_heap[0].slot].cancelled)
            freeSlot(heapPopTop().slot);
        const Tick heap_when = _heap.empty() ? kMaxTick : _heap[0].when;

        while (_ringCount > 0 && _scanTick <= heap_when) {
            Bucket& b = _ring[_scanTick & (kRingTicks - 1)];
            if (b.head == kNilLink) {
                ++_scanTick;
                continue;
            }
            if (_keyed && _scanTick != _sortedTick)
                sortBucket(b);
            if (_slots[b.head].cancelled) {
                freeSlot(ringPopHead(b));
                continue;
            }
            // Live ring head at _scanTick; earlier than the heap top, or
            // tied on tick and decided by sequence number.
            if (_scanTick < heap_when ||
                _slots[b.head].seq < _heap[0].seq) {
                return Src::Ring;
            }
            return Src::Heap;
        }
        return _heap.empty() ? Src::None : Src::Heap;
    }

    /** Tick of the event peekSource() selected (must not be Src::None). */
    Tick
    nextWhen(Src src) const
    {
        return src == Src::Ring ? _scanTick : _heap[0].when;
    }

    /** Remove and return the entry peekSource() selected. */
    HeapEntry
    popFrom(Src src)
    {
        if (src == Src::Heap)
            return heapPopTop();
        Bucket& b = _ring[_scanTick & (kRingTicks - 1)];
        const std::uint32_t idx = ringPopHead(b);
        return HeapEntry{_slots[idx].when, _slots[idx].seq, idx};
    }

    void
    heapPush(HeapEntry e)
    {
        std::size_t pos = _heap.size();
        _heap.push_back(e);
        while (pos > 0) {
            const std::size_t parent = (pos - 1) / 2;
            if (!before(e, _heap[parent]))
                break;
            _heap[pos] = _heap[parent];
            pos = parent;
        }
        _heap[pos] = e;
    }

    /** Remove and return the top entry (heap must be non-empty). */
    HeapEntry
    heapPopTop()
    {
        const HeapEntry top = _heap[0];
        const HeapEntry last = _heap.back();
        _heap.pop_back();
        const std::size_t n = _heap.size();
        if (n > 0) {
            std::size_t pos = 0;
            while (true) {
                std::size_t child = 2 * pos + 1;
                if (child >= n)
                    break;
                if (child + 1 < n && before(_heap[child + 1], _heap[child]))
                    ++child;
                if (!before(_heap[child], last))
                    break;
                _heap[pos] = _heap[child];
                pos = child;
            }
            _heap[pos] = last;
        }
        return top;
    }

    /** Recycle @p slot: bump the generation so outstanding handles go
     *  stale, and return it to the free list. */
    void
    freeSlot(std::uint32_t slot)
    {
        Slot& s = _slots[slot];
        s.fn = nullptr;
        s.cancelled = false;
        ++s.gen;
        _free.push_back(slot);
    }

    /**
     * Pop, under the installed policy, the event to run next. @p src is
     * peekSource()'s result (not None). Leaves every other ready event
     * pending and returns the chosen entry (already removed).
     */
    HeapEntry popPolicyChoice(Src src);

    /** Run the popped entry @p e (advances time, executes, recycles). */
    void
    dispatchSlot(HeapEntry e)
    {
        // Move the callback out of the slab first: it may schedule new
        // events, which can grow _slots and invalidate references.
        EventFn fn = std::move(_slots[e.slot].fn);
        _execTile = _slots[e.slot].execTile;
        _curKey = e.seq;
        _journalSub = 0;
        freeSlot(e.slot);
        SBULK_ASSERT(_live > 0, "dispatch accounting underflow");
        --_live;
        SBULK_ASSERT(e.when >= _now, "event queue went back in time");
        _now = e.when;
        // With the ring empty the cursor may resynchronize to any tick no
        // event precedes; jumping to the dispatch tick keeps short-delta
        // schedules from the callback inside the ring window after a long
        // heap-only idle gap (a stale low cursor would silently route
        // everything to the heap).
        if (_ringCount == 0)
            _scanTick = e.when;
        fn();
    }

    std::vector<Slot> _slots;
    std::vector<HeapEntry> _heap;
    std::vector<std::uint32_t> _free;
    /** Scratch for popPolicyChoice (avoids a per-batch allocation). */
    std::vector<HeapEntry> _batch;
    /** Calendar buckets, indexed by tick & (kRingTicks - 1). */
    std::array<Bucket, kRingTicks> _ring;
    /** Entries currently linked in the ring (cancelled ones included
     *  until they surface and are recycled). */
    std::size_t _ringCount = 0;
    /** The one tick whose keyed bucket is known to be in sequence order
     *  (the last one the scan sorted); kMaxTick until then, and always in
     *  serial mode. */
    Tick _sortedTick = kMaxTick;
    /** Scratch for sortBucket: (sequence, slot) pairs of one bucket. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> _sortScratch;
    /**
     * Ring scan cursor: no ring entry's tick is below it, and every ring
     * entry's tick is within kRingTicks of it. Monotone except for the
     * empty-ring resync in dispatchSlot.
     */
    Tick _scanTick = 0;
    SchedulePolicy* _policy = nullptr;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::size_t _live = 0;
    /// @name Keyed canonical ordering state (sharded mode)
    /// @{
    bool _keyed = false;
    /** Shared per-tile key counters (owner-shard-written). */
    std::vector<std::uint64_t>* _tileSeq = nullptr;
    /** Tile attribution of the currently-running (or constructing) code. */
    std::uint32_t _execTile = 0;
    /** Canonical key of the dispatching event. */
    std::uint64_t _curKey = 0;
    /** Per-dispatch journal sub-counter. */
    std::uint32_t _journalSub = 0;
    /// @}
};

} // namespace sbulk

#endif // SBULK_SIM_EVENT_QUEUE_HH
