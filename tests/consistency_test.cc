/**
 * @file
 * Chunk serializability (paper §3.1), checked by the serializability
 * oracle of check::OracleSuite: first on hand-fed event histories, then
 * against all four protocols under contended workloads. A violation means
 * a chunk committed after reading data that a conflicting commit, ordered
 * before it, overwrote mid-flight — i.e. the protocol failed to squash it.
 */

#include <gtest/gtest.h>

#include "oracle_harness.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace
{

using check::OracleSuite;

/** @p tag 's writes become visible at their home directory, then the
 *  chunk retires at @p now — the order every protocol reports them in. */
void
commit(OracleSuite& s, const ChunkTag& tag, std::vector<Addr> writes,
       Tick now)
{
    for (Addr line : writes)
        s.onLineCommitted(/*dir=*/0, line, CommitId{tag, 0});
    s.onChunkCommitted(tag.proc, tag, writes, now);
}

TEST(SerializabilityOracle, CleanHistoryHasNoViolations)
{
    OracleSuite s;
    const ChunkTag a{0, 1}, b{1, 1};
    s.onChunkRead(0, a, 0x10);
    commit(s, a, {0x20}, 100); // writes elsewhere: fine
    s.onChunkRead(1, b, 0x20); // reads AFTER the write: version 1
    commit(s, b, {}, 200);
    EXPECT_TRUE(s.violations().empty()) << describe(s);
    EXPECT_EQ(s.commitsChecked(), 2u);
}

TEST(SerializabilityOracle, DetectsStaleRead)
{
    OracleSuite s;
    const ChunkTag reader{0, 1}, writer{1, 1};
    s.onChunkRead(0, reader, 0x10); // version 0
    commit(s, writer, {0x10}, 100); // bumps to 1
    commit(s, reader, {}, 200);     // stale!
    ASSERT_EQ(s.violations().size(), 1u);
    EXPECT_EQ(s.violations()[0].oracle, "serializability");
    EXPECT_NE(s.violations()[0].detail.find("line 16 at version 0"),
              std::string::npos)
        << s.violations()[0].detail;
    EXPECT_NE(s.violations()[0].detail.find("(now 1)"), std::string::npos)
        << s.violations()[0].detail;
}

TEST(SerializabilityOracle, OwnWriteIsNotStale)
{
    OracleSuite s;
    const ChunkTag a{0, 1}, w{1, 1};
    s.onChunkRead(0, a, 0x10);
    commit(s, w, {0x10}, 100);
    // a also WROTE 0x10: a write-write conflict would have squashed it if
    // concurrent; if it commits, its own write supersedes the read check.
    commit(s, a, {0x10}, 200);
    EXPECT_TRUE(s.violations().empty()) << describe(s);
}

TEST(SerializabilityOracle, SquashedReadsAreForgotten)
{
    OracleSuite s;
    const ChunkTag a{0, 1};
    s.onChunkRead(0, a, 0x10);
    commit(s, ChunkTag{1, 1}, {0x10}, 100);
    // Squashed: its stale read never commits.
    const Chunk victim(a, 0, SigConfig{});
    s.onChunkSquashed(0, victim, SquashReason::ProtocolKill, ChunkTag{},
                      nullptr, nullptr);
    commit(s, a, {}, 200);
    EXPECT_TRUE(s.violations().empty()) << describe(s);
}

TEST(SerializabilityOracle, WriteSerializedAfterTheReaderIsBenign)
{
    // BulkSC's arbiter grants the reader first; the writer is granted
    // later but its writes land and it retires before the reader does.
    // The writer is logically after the reader, so the reader's old value
    // is the serializable one.
    OracleSuite s;
    const ChunkTag reader{0, 1}, writer{1, 1};
    s.onChunkRead(0, reader, 0x10);
    s.onCommitSerialized(0, CommitId{reader, 0});
    s.onCommitSerialized(1, CommitId{writer, 0});
    commit(s, writer, {0x10}, 100);
    commit(s, reader, {}, 200);
    EXPECT_TRUE(s.violations().empty()) << describe(s);

    // Granted the other way round, the same history is a stale read.
    OracleSuite t;
    t.onChunkRead(0, reader, 0x10);
    t.onCommitSerialized(1, CommitId{writer, 0});
    t.onCommitSerialized(0, CommitId{reader, 0});
    commit(t, writer, {0x10}, 100);
    commit(t, reader, {}, 200);
    ASSERT_EQ(t.violations().size(), 1u);
    EXPECT_EQ(t.violations()[0].oracle, "serializability");
}

TEST(SerializabilityOracle, BulkScRadix64IsClean)
{
    // 64p Radix under BulkSC, 20 chunks per core: the run where grant
    // order and completion order disagree most (a 64-tile arbiter queue).
    // A version check that ignores the grant order flags a handful of
    // these commits; none is a real violation.
    SystemConfig cfg;
    cfg.numProcs = 64;
    cfg.protocol = ProtocolKind::BulkSC;
    cfg.core.chunksToRun = 20;
    OracleSuite suite;
    cfg.observer = &suite;

    const SyntheticParams p = streamParams(*findApp("Radix"), cfg.numProcs);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));
    System sys(cfg, std::move(streams));
    suite.setClock(&sys.eventQueue());
    sys.run();
    finishOracles(sys, suite);

    EXPECT_EQ(suite.commitsChecked(), 64u * 20u);
    EXPECT_TRUE(suite.violations().empty())
        << suite.violations().size() << " violation(s)\n"
        << describe(suite);
}

/**
 * End-to-end: run a contended workload under each protocol with the
 * oracles attached. Every oracle must stay silent.
 */
class ProtocolAtomicity : public ::testing::TestWithParam<ProtocolKind>
{};

TEST_P(ProtocolAtomicity, ContendedRunStaysSerializable)
{
    SystemConfig cfg;
    cfg.numProcs = 16;
    cfg.protocol = GetParam();
    cfg.core.chunkInstrs = 600;
    cfg.core.chunksToRun = 25;
    OracleSuite suite;
    cfg.observer = &suite;

    SyntheticParams p;
    p.sharedFraction = 0.4;
    p.sharedWriteFraction = 0.2;
    p.hotFraction = 0.05; // heavy true conflicts
    p.hotLines = 8;
    p.temporalReuse = 0.7;

    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));

    System sys(cfg, std::move(streams));
    suite.setClock(&sys.eventQueue());
    sys.run(1'000'000'000);
    finishOracles(sys, suite);

    EXPECT_EQ(suite.commitsChecked(), 16u * 25u);
    // There must be real conflicts for this test to mean anything.
    EXPECT_GT(sys.metrics().squashesTrueConflict.value() +
                  sys.metrics().commitFailures.value(),
              0u)
        << "workload not contended enough to exercise the oracle";
    EXPECT_TRUE(suite.violations().empty())
        << protocolName(GetParam()) << " broke an invariant\n"
        << describe(suite);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ProtocolAtomicity,
    ::testing::Values(ProtocolKind::ScalableBulk, ProtocolKind::TCC,
                      ProtocolKind::SEQ, ProtocolKind::BulkSC),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
        return protocolName(info.param);
    });

} // namespace
} // namespace sbulk
