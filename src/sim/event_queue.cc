#include "sim/event_queue.hh"

#include <algorithm>

namespace sbulk
{

// Out of line: the keyed-bucket ordering (a sorted insert, a once-per-tick
// sort) and the policy path, the schedule-exploration checker's hook. The
// append and dispatch fast path stays inline in the header so event-loop
// drivers compile down to one tight loop; pulling these in would push it
// out of line.

void
EventQueue::insertSorted(Bucket& b, std::uint32_t idx)
{
    const std::uint64_t seq = _slots[idx].seq;
    if (_slots[b.tail].seq < seq) {
        _slots[b.tail].next = idx;
        b.tail = idx;
        return;
    }
    std::uint32_t prev = kNilLink;
    std::uint32_t cur = b.head;
    while (_slots[cur].seq < seq) {
        prev = cur;
        cur = _slots[cur].next;
    }
    _slots[idx].next = cur;
    if (prev == kNilLink)
        b.head = idx;
    else
        _slots[prev].next = idx;
}

void
EventQueue::sortBucket(Bucket& b)
{
    _sortedTick = _scanTick;
    // Sort (seq, slot) pairs, not slot indices: a comparator that reads
    // _slots[i].seq chases a pointer per comparison. Keys are unique, so
    // the order is total. A bucket already in order is only scanned.
    _sortScratch.clear();
    bool ordered = true;
    for (std::uint32_t i = b.head; i != kNilLink; i = _slots[i].next) {
        const std::uint64_t seq = _slots[i].seq;
        if (!_sortScratch.empty() && _sortScratch.back().first > seq)
            ordered = false;
        _sortScratch.emplace_back(seq, i);
    }
    if (ordered)
        return;
    std::sort(_sortScratch.begin(), _sortScratch.end());
    b.head = _sortScratch.front().second;
    for (std::size_t k = 1; k < _sortScratch.size(); ++k)
        _slots[_sortScratch[k - 1].second].next = _sortScratch[k].second;
    b.tail = _sortScratch.back().second;
    _slots[b.tail].next = kNilLink;
}

EventQueue::HeapEntry
EventQueue::popPolicyChoice(Src src)
{
    // Collect the batch of ready events: every non-cancelled entry at the
    // earliest tick, from both structures. The ring bucket drains in
    // append (= ascending sequence) order and the heap pops in ascending
    // sequence order; the two runs can interleave (the window advances
    // between inserts), so sort the merged batch by sequence number — the
    // order the policy indexes.
    const Tick when = nextWhen(src);
    _batch.clear();
    if (_ringCount > 0 && _scanTick == when) {
        Bucket& b = _ring[when & (kRingTicks - 1)];
        while (b.head != kNilLink) {
            const std::uint32_t idx = ringPopHead(b);
            const Slot& s = _slots[idx];
            if (s.cancelled) {
                freeSlot(idx);
                continue;
            }
            _batch.push_back(HeapEntry{s.when, s.seq, idx});
        }
    }
    while (!_heap.empty() && _heap[0].when == when) {
        const HeapEntry e = heapPopTop();
        if (_slots[e.slot].cancelled) {
            freeSlot(e.slot);
            continue;
        }
        _batch.push_back(e);
    }
    std::sort(_batch.begin(), _batch.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                  return a.seq < b.seq;
              });
    SBULK_ASSERT(!_batch.empty(), "policy dispatch with no ready events");

    std::size_t pick = 0;
    if (_batch.size() > 1) {
        pick = _policy->chooseNext(_batch.size());
        SBULK_ASSERT(pick < _batch.size(),
                     "schedule policy chose %zu of %zu", pick, _batch.size());
    }

    const HeapEntry chosen = _batch[pick];
    // Re-queue the rest *before* running the chosen callback, so a
    // cancel() from inside it is honoured on their next surfacing.
    // Ascending-sequence iteration refills a drained ring bucket by
    // appends only; the original sequence numbers are preserved.
    for (std::size_t i = 0; i < _batch.size(); ++i) {
        if (i != pick)
            enqueueEntry(_batch[i].slot, _batch[i].when, _batch[i].seq);
    }
    return chosen;
}

} // namespace sbulk
