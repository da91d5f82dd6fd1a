/**
 * @file
 * Unit tests for the protocol-metrics infrastructure (CommitMetrics,
 * BlockedChunkTracker) and the leader/traversal policy of Section 3.2.2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "proto/commit_protocol.hh"
#include "sim/event_queue.hh"
#include "proto/scalablebulk/proc_ctrl.hh"

namespace sbulk
{
namespace
{

TEST(BlockedChunkTracker, CountsDistinctChunks)
{
    BlockedChunkTracker t;
    EXPECT_EQ(t.distinct(), 0);
    t.block(1);
    t.block(1); // second directory blocks the same chunk
    t.block(2);
    EXPECT_EQ(t.distinct(), 2);
    t.unblock(1);
    EXPECT_EQ(t.distinct(), 2) << "still blocked at one directory";
    t.unblock(1);
    EXPECT_EQ(t.distinct(), 1);
}

TEST(BlockedChunkTracker, ClearRemovesAllBlocks)
{
    BlockedChunkTracker t;
    t.block(7);
    t.block(7);
    t.block(7);
    t.clear(7);
    EXPECT_EQ(t.distinct(), 0);
}

TEST(BlockedChunkTracker, UnblockUnknownIsHarmless)
{
    BlockedChunkTracker t;
    t.unblock(42);
    EXPECT_EQ(t.distinct(), 0);
}

TEST(CommitMetrics, SampleOnGroupFormedUsesGauges)
{
    CommitMetrics m;
    m.forming = 4;
    m.committing = 2;
    m.queued = 3;
    m.sampleOnGroupFormed();
    EXPECT_DOUBLE_EQ(m.bottleneckRatio.mean(), 2.0);
    EXPECT_DOUBLE_EQ(m.chunkQueueLength.mean(), 3.0);
}

TEST(CommitMetrics, SampleClampsNegativeGauges)
{
    CommitMetrics m;
    m.forming = -1; // transient accounting dips must not pollute samples
    m.committing = 0;
    m.sampleOnGroupFormed();
    EXPECT_DOUBLE_EQ(m.bottleneckRatio.mean(), 0.0);
}

TEST(CommitMetrics, QueueProtocolSamplingDerivesFromTracker)
{
    CommitMetrics m;
    m.inflight = 5;
    m.blocked.block(1);
    m.blocked.block(2);
    m.sampleQueueProtocols();
    EXPECT_EQ(m.queued, 2);
    EXPECT_EQ(m.forming, 2);
    EXPECT_EQ(m.committing, 3);
    EXPECT_DOUBLE_EQ(m.chunkQueueLength.mean(), 2.0);
}

// Journaled gauge ops, split over two instances (as two shards would) and
// replayed into a third, must end in the gauges and samples that direct
// mutation of one instance gives.
TEST(CommitMetrics, JournalReplayMatchesDirectMutation)
{
    const std::vector<std::function<void(CommitMetrics&)>> ops = {
        [](CommitMetrics& m) { m.addForming(3); },
        [](CommitMetrics& m) { m.addCommitting(2); },
        [](CommitMetrics& m) { m.sampleGroupFormedEvent(); },
        [](CommitMetrics& m) { m.addForming(-1); },
        [](CommitMetrics& m) { m.addInflight(5); },
        [](CommitMetrics& m) { m.blockChunk(1); },
        [](CommitMetrics& m) { m.blockChunk(2); },
        [](CommitMetrics& m) { m.blockChunk(1); },
        [](CommitMetrics& m) { m.unblockChunk(1); },
        [](CommitMetrics& m) { m.sampleQueueEvent(); },
        [](CommitMetrics& m) { m.clearChunk(2); },
        [](CommitMetrics& m) { m.addCommitting(-4); },
        [](CommitMetrics& m) { m.sampleGroupFormedEvent(); },
        [](CommitMetrics& m) { m.addInflight(-2); },
        [](CommitMetrics& m) { m.sampleQueueEvent(); },
    };
    CommitMetrics direct;
    for (const auto& op : ops)
        op(direct);

    // Two ops per event, events alternating between the two instances.
    EventQueue eq;
    CommitMetrics shard[2];
    shard[0].journalTo(&eq);
    shard[1].journalTo(&eq);
    for (std::size_t i = 0; i < ops.size(); i += 2) {
        eq.schedule(i, [&, i] {
            for (std::size_t j = i; j < std::min(i + 2, ops.size()); ++j)
                ops[j](shard[(i / 2) % 2]);
        });
    }
    eq.run();
    EXPECT_EQ(shard[0].forming, 0); // journaled, not applied
    EXPECT_EQ(shard[0].bottleneckRatio.count(), 0u);

    // Merge out of order; replay sorts.
    std::vector<CommitMetrics::JournalRec> recs = shard[1].takeJournal();
    for (const auto& r : shard[0].takeJournal())
        recs.push_back(r);
    CommitMetrics merged;
    merged.replayJournal(std::move(recs));

    EXPECT_EQ(merged.forming, direct.forming);
    EXPECT_EQ(merged.committing, direct.committing);
    EXPECT_EQ(merged.queued, direct.queued);
    EXPECT_EQ(merged.inflight, direct.inflight);
    EXPECT_EQ(merged.blocked.distinct(), direct.blocked.distinct());
    ASSERT_EQ(direct.bottleneckRatio.count(), 4u);
    EXPECT_EQ(merged.bottleneckRatio.count(), direct.bottleneckRatio.count());
    EXPECT_DOUBLE_EQ(merged.bottleneckRatio.sum(),
                     direct.bottleneckRatio.sum());
    EXPECT_EQ(merged.chunkQueueLength.count(),
              direct.chunkQueueLength.count());
    EXPECT_DOUBLE_EQ(merged.chunkQueueLength.sum(),
                     direct.chunkQueueLength.sum());
}

TEST(CommitMetrics, RecordCommitCapturesFootprintAndLatency)
{
    CommitMetrics m;
    Chunk chunk(ChunkTag{2, 1}, 0, SigConfig{});
    chunk.recordRead(0x10, 3);
    chunk.recordWrite(0x20, 5);
    chunk.recordWrite(0x30, 7);
    chunk.commitRequested = 100;
    m.recordCommit(chunk, 190);
    EXPECT_EQ(m.commits.value(), 1u);
    EXPECT_DOUBLE_EQ(m.commitLatency.mean(), 90.0);
    EXPECT_DOUBLE_EQ(m.dirsPerCommit.mean(), 3.0);      // dirs 3,5,7
    EXPECT_DOUBLE_EQ(m.writeDirsPerCommit.mean(), 2.0); // dirs 5,7
}

TEST(LeaderPolicy, BaselineIsAscendingIds)
{
    sb::LeaderPolicy policy(8, /*rotation=*/0);
    const NodeSet gvec = NodeSet::of(1, 4, 6);
    const auto order = policy.order(gvec, /*now=*/12345);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1u); // leader = lowest id
    EXPECT_EQ(order[1], 4u);
    EXPECT_EQ(order[2], 6u);
}

TEST(LeaderPolicy, RotationMovesThePriorityOrigin)
{
    sb::LeaderPolicy policy(8, /*rotation=*/1000);
    const NodeSet gvec = NodeSet::of(1, 5);
    // Interval 0: origin 0 -> 1 leads.
    EXPECT_EQ(policy.order(gvec, 0)[0], 1u);
    // Origin 2..5: 5 leads (1 wraps to priority 7.. etc.).
    EXPECT_EQ(policy.order(gvec, 2000)[0], 5u);
    EXPECT_EQ(policy.order(gvec, 5000)[0], 5u);
    // Origin 6: 1 leads again? priority(1)= (1+8-6)%8=3, priority(5)=7.
    EXPECT_EQ(policy.order(gvec, 6000)[0], 1u);
}

TEST(LeaderPolicy, RotationKeepsOrderConsistentForAllMembers)
{
    // The traversal order must be a permutation of the members at every
    // interval (no duplicates, no omissions).
    sb::LeaderPolicy policy(16, 500);
    NodeSet gvec;
    for (NodeId n : {1, 4, 5, 7, 10, 11, 13, 15})
        gvec.insert(n);
    for (Tick now : {Tick(0), Tick(750), Tick(4999), Tick(123456)}) {
        auto order = policy.order(gvec, now);
        NodeSet seen;
        for (NodeId n : order) {
            EXPECT_FALSE(seen.contains(n)) << "duplicate member";
            seen.insert(n);
        }
        EXPECT_EQ(seen, gvec);
    }
}

} // namespace
} // namespace sbulk
