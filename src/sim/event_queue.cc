#include "sim/event_queue.hh"

#include <algorithm>

namespace sbulk
{

// Only the policy path lives out of line: it is the schedule-exploration
// checker's hook, not the simulator fast path (which is fully inline in the
// header so event-loop drivers compile down to one tight loop).
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
