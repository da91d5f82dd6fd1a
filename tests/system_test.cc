/**
 * @file
 * Tests of System-level facilities: stats recording, the torus accessor
 * and its link-occupancy counters, breakdown arithmetic, and the observer
 * slot the invariant oracles attach through.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "oracle_harness.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace
{

System
makeSystem(SystemConfig cfg)
{
    SyntheticParams p;
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));
    return System(cfg, std::move(streams));
}

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.numProcs = 8;
    cfg.core.chunkInstrs = 300;
    cfg.core.chunksToRun = 5;
    return cfg;
}

TEST(SystemStats, RecordStatsCoversComponents)
{
    System sys = makeSystem(tinyConfig());
    sys.run(100'000'000);
    StatSet set;
    sys.recordStats(set);
    EXPECT_DOUBLE_EQ(set.get("commits"), 40.0);
    EXPECT_TRUE(set.has("commitLatency.mean"));
    EXPECT_TRUE(set.has("net.MemRd.messages"));
    EXPECT_TRUE(set.has("core0.useful"));
    EXPECT_TRUE(set.has("core7.chunksCommitted"));
    EXPECT_TRUE(set.has("dir3.reads"));
    EXPECT_TRUE(set.has("l2_5.loads"));
    EXPECT_DOUBLE_EQ(set.get("core2.chunksCommitted"), 5.0);
    // Dumping produces one line per stat.
    std::ostringstream os;
    set.dump(os);
    EXPECT_GT(os.str().size(), 100u);
}

TEST(SystemStats, TorusAccessorAndLinkOccupancy)
{
    SystemConfig cfg = tinyConfig();
    cfg.core.chunksToRun = 20;
    SyntheticParams p;
    p.sharedFraction = 0.6; // guarantee remote traffic
    p.temporalReuse = 0.5;
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));
    System sys(cfg, std::move(streams));
    ASSERT_NE(sys.torus(), nullptr);
    sys.run(100'000'000);
    const TorusNetwork& net = *sys.torus();
    // Some link must have carried traffic.
    EXPECT_GT(net.maxLinkBusy(), 0u);
    // Occupancy never exceeds elapsed time.
    for (NodeId n = 0; n < 8; ++n)
        for (unsigned d = 0; d < 4; ++d)
            EXPECT_LE(net.linkBusy(n, d), sys.eventQueue().now());
}

TEST(SystemStats, DirectNetworkHasNoTorus)
{
    SystemConfig cfg = tinyConfig();
    cfg.directNetwork = true;
    System sys = makeSystem(cfg);
    EXPECT_EQ(sys.torus(), nullptr);
}

TEST(SystemStats, BreakdownTotalsAreSumOfParts)
{
    System sys = makeSystem(tinyConfig());
    sys.run(100'000'000);
    const auto b = sys.breakdown();
    EXPECT_DOUBLE_EQ(b.total(),
                     b.useful + b.cacheMiss + b.commit + b.squash);
    EXPECT_GE(double(b.makespan), b.meanFinish);
}

TEST(SystemStats, ValidateModeAttachesOracle)
{
    SystemConfig cfg = tinyConfig();
    check::OracleSuite suite;
    cfg.observer = &suite;
    System sys = makeSystem(cfg);
    suite.setClock(&sys.eventQueue());
    sys.run(100'000'000);
    finishOracles(sys, suite);
    EXPECT_EQ(suite.commitsChecked(), 40u);
    EXPECT_TRUE(suite.violations().empty()) << describe(suite);
}

TEST(SystemStats, ValidateOffMeansNoOracle)
{
    // Plain runs carry no observer, and attaching one changes nothing the
    // run computes: observers schedule no events.
    EXPECT_EQ(tinyConfig().observer, nullptr);
    System plain = makeSystem(tinyConfig());
    const Tick plain_end = plain.run(100'000'000);

    SystemConfig cfg = tinyConfig();
    check::OracleSuite suite;
    cfg.observer = &suite;
    System watched = makeSystem(cfg);
    EXPECT_EQ(watched.run(100'000'000), plain_end);
    EXPECT_EQ(watched.metrics().commits.value(),
              plain.metrics().commits.value());
    EXPECT_EQ(watched.traffic().totalMessages(),
              plain.traffic().totalMessages());
}

} // namespace
} // namespace sbulk
