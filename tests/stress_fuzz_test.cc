/**
 * @file
 * Randomized stress: sample the (protocol x machine size x workload
 * parameter) space with a deterministic RNG and assert the global
 * invariants on every sample — all work commits, gauges balance, the
 * invariant oracles are clean, and accounting conserves cycles.
 *
 * This is the closest thing to a protocol fuzzer the simulator has; the
 * parameter draws deliberately include nasty corners (tiny chunks, heavy
 * hot regions, near-zero locality).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "oracle_harness.hh"
#include "sim/random.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace
{

struct FuzzCase
{
    std::uint64_t seed;
};

class StressFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(StressFuzz, InvariantsHoldOnRandomConfiguration)
{
    Rng rng(GetParam());

    SystemConfig cfg;
    const std::uint32_t sizes[] = {2, 4, 8, 16, 32};
    cfg.numProcs = sizes[rng.below(5)];
    const ProtocolKind protos[] = {
        ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
        ProtocolKind::BulkSC};
    cfg.protocol = protos[rng.below(4)];
    cfg.core.chunkInstrs = std::uint32_t(rng.between(100, 3000));
    cfg.core.chunksToRun = rng.between(4, 20);
    check::OracleSuite suite;
    cfg.observer = &suite;
    cfg.directNetwork = rng.chance(0.3);
    cfg.proto.oci = rng.chance(0.8);
    cfg.proto.leaderRotationInterval =
        rng.chance(0.3) ? rng.between(1000, 20000) : 0;

    SyntheticParams p;
    p.seed = rng.next();
    p.memFraction = 0.15 + rng.uniform() * 0.3;
    p.writeFraction = rng.uniform() * 0.5;
    p.sharedFraction = rng.uniform() * 0.7;
    p.sharedWriteFraction = rng.uniform() * 0.4;
    p.temporalReuse = 0.3 + rng.uniform() * 0.65;
    p.spatialRunMean = 1.0 + rng.uniform() * 10.0;
    p.accessesPerLine = 1.0 + rng.uniform() * 10.0;
    p.hotFraction = rng.uniform() * 0.1;
    p.hotLines = std::uint32_t(rng.between(1, 64));
    p.partitionSharedLines = rng.chance(0.5);
    p.privatePages = std::uint32_t(rng.between(1, 64));
    p.sharedPages = std::uint32_t(rng.between(8, 512));
    p.sharedBlocks = std::uint32_t(rng.between(4, 256));

    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));

    System sys(cfg, std::move(streams));
    suite.setClock(&sys.eventQueue());
    const Tick end = sys.run(/*limit=*/3'000'000'000ull);

    // Everything committed (no deadlock, no livelock within the limit).
    const std::uint64_t expected =
        std::uint64_t(cfg.numProcs) * cfg.core.chunksToRun;
    ASSERT_EQ(sys.metrics().commits.value(), expected)
        << protocolName(cfg.protocol) << " procs=" << cfg.numProcs
        << " chunk=" << cfg.core.chunkInstrs;

    // Gauges balance.
    EXPECT_EQ(sys.metrics().forming, 0);
    EXPECT_GE(sys.metrics().committing, 0);
    EXPECT_EQ(sys.metrics().blocked.distinct(), 0);
    EXPECT_EQ(sys.metrics().inflight, 0);

    // The invariant oracles stay clean.
    finishOracles(sys, suite);
    EXPECT_TRUE(suite.violations().empty())
        << suite.violations().size() << " violations under "
        << protocolName(cfg.protocol) << "\n"
        << describe(suite);

    // Cycle accounting: every core's categorized cycles fit inside the
    // simulated wall clock.
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        const auto& s = sys.core(n).stats();
        const std::uint64_t charged =
            s.usefulCycles.value() + s.missStallCycles.value() +
            s.commitStallCycles.value() + s.squashWasteCycles.value();
        EXPECT_LE(charged, end + 1) << "core " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressFuzz,
                         ::testing::Range<std::uint64_t>(1, 25),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                             return "seed" + std::to_string(info.param);
                         });

} // namespace
} // namespace sbulk
