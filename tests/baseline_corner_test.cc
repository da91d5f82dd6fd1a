/**
 * @file
 * Corner-case tests of the baseline protocols' squash/abort paths, driven
 * through the full System with adversarial scripted workloads:
 *  - TCC: a chunk squashed while its TID request is in flight must still
 *    plug its TID hole with skips (else every directory wedges);
 *  - TCC: aborts after probes release held directories;
 *  - SEQ: a chunk squashed mid-occupation releases/cancels and the queue
 *    drains;
 *  - BulkSC: conservative nacking of invalidations resolves.
 * The invariant in all cases is global: every chunk eventually commits.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "oracle_harness.hh"
#include "system/system.hh"

namespace sbulk
{
namespace
{

/** A stream cycling a fixed script of operations. */
class ScriptedStream : public ThreadStream
{
  public:
    explicit ScriptedStream(std::vector<MemOp> script)
        : _script(std::move(script))
    {}

    MemOp
    next() override
    {
        MemOp op = _script[_idx];
        _idx = (_idx + 1) % _script.size();
        return op;
    }

  private:
    std::vector<MemOp> _script;
    std::size_t _idx = 0;
};

/**
 * An adversarial load: every core reads and writes the same few lines,
 * so squashes, aborts, and retries fire constantly.
 */
std::vector<std::unique_ptr<ThreadStream>>
conflictStorm(std::uint32_t cores)
{
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::vector<MemOp> script;
        for (int i = 0; i < 4; ++i) {
            script.push_back(MemOp{2, true, Addr(i) * 32});
            script.push_back(MemOp{2, false, Addr((i + 1) % 4) * 32});
        }
        streams.push_back(std::make_unique<ScriptedStream>(script));
    }
    return streams;
}

/** Disjoint writes to lines of several shared pages: no squashes, but
 *  heavy same-directory serialization (occupation queues, TID holds). */
std::vector<std::unique_ptr<ThreadStream>>
sameDirStorm(std::uint32_t cores)
{
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (std::uint32_t c = 0; c < cores; ++c) {
        std::vector<MemOp> script;
        for (int page = 0; page < 3; ++page) {
            const Addr base = Addr(page) * 4096 + Addr(c) * 4 * 32;
            script.push_back(MemOp{2, true, base});
            script.push_back(MemOp{2, false, base + 32});
        }
        streams.push_back(std::make_unique<ScriptedStream>(script));
    }
    return streams;
}

SystemConfig
stormConfig(ProtocolKind proto, std::uint32_t cores)
{
    SystemConfig cfg;
    cfg.numProcs = cores;
    cfg.protocol = proto;
    cfg.core.chunkInstrs = 120; // tiny chunks: maximal commit pressure
    cfg.core.chunksToRun = 40;
    return cfg;
}

/** @p cfg with @p suite attached as its observer. */
SystemConfig
watchedBy(SystemConfig cfg, check::OracleSuite& suite)
{
    cfg.observer = &suite;
    return cfg;
}

TEST(BaselineCorner, TccSurvivesConflictStorm)
{
    // Constant W-W conflicts with tiny chunks: TID-in-flight squashes and
    // post-probe aborts happen many times; every hole must be plugged or
    // the TID order wedges (run() panics on deadlock).
    SystemConfig cfg = stormConfig(ProtocolKind::TCC, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), conflictStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    EXPECT_GT(sys.metrics().squashesTrueConflict.value(), 0u);
    EXPECT_EQ(sys.metrics().blocked.distinct(), 0);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, SeqSurvivesConflictStorm)
{
    SystemConfig cfg = stormConfig(ProtocolKind::SEQ, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), conflictStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    EXPECT_GT(sys.metrics().squashesTrueConflict.value(), 0u);
    // Every occupation was released or cancelled.
    EXPECT_EQ(sys.metrics().blocked.distinct(), 0);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, BulkScSurvivesConflictStorm)
{
    // Denials, retries, and conservative nacks all cycle; the arbiter's
    // committing set must drain every time.
    SystemConfig cfg = stormConfig(ProtocolKind::BulkSC, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), conflictStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    EXPECT_GT(sys.metrics().squashesTrueConflict.value() +
                  sys.metrics().commitFailures.value(),
              0u);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, ScalableBulkSurvivesConflictStorm)
{
    SystemConfig cfg = stormConfig(ProtocolKind::ScalableBulk, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), conflictStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, TccHoldsSerializeSameDirStorm)
{
    // No conflicts at all, yet TCC's probe-holds must queue heavily on
    // the shared directories — and still finish.
    SystemConfig cfg = stormConfig(ProtocolKind::TCC, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), sameDirStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    EXPECT_EQ(sys.metrics().squashesTrueConflict.value(), 0u);
    EXPECT_GT(sys.metrics().chunkQueueLength.mean(), 0.0);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, SeqQueuesDrainOnSameDirStorm)
{
    SystemConfig cfg = stormConfig(ProtocolKind::SEQ, 8);
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), sameDirStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    EXPECT_EQ(sys.metrics().squashesTrueConflict.value(), 0u);
    EXPECT_EQ(sys.metrics().blocked.distinct(), 0);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(BaselineCorner, OciOffConflictStormStillCompletes)
{
    // The conservative-initiation deadlock regression (DESIGN.md §5):
    // mutually-invalidating committers with OCI off must not wedge.
    SystemConfig cfg = stormConfig(ProtocolKind::ScalableBulk, 8);
    cfg.proto.oci = false;
    check::OracleSuite suite;
    System sys(watchedBy(cfg, suite), conflictStorm(8));
    suite.setClock(&sys.eventQueue());
    sys.run(2'000'000'000ull);
    EXPECT_EQ(sys.metrics().commits.value(), 8u * 40u);
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

} // namespace
} // namespace sbulk
