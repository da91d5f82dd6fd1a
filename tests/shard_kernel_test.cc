/**
 * @file
 * End-to-end tests of the parallel-in-run event kernel (src/sim/shard.hh
 * + System::runSharded): sharded runs complete with the full chunk budget
 * committed, end-of-run statistics are identical for every shard count
 * >= 2 (the determinism contract of SystemConfig::shards), the per-shard
 * utilization counters are populated, and the serial path is untouched.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/shard.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"

namespace sbulk
{
namespace
{

SyntheticParams
conflictParams()
{
    SyntheticParams p;
    p.sharedFraction = 0.4; // cross-tile traffic and real write conflicts
    p.temporalReuse = 0.3;
    return p;
}

std::vector<std::unique_ptr<ThreadStream>>
makeStreams(const SystemConfig& cfg, const SyntheticParams& p)
{
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < cfg.numProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            p, n, cfg.numProcs, cfg.mem.l2.lineBytes, cfg.mem.pageBytes));
    return streams;
}

SystemConfig
shardedConfig(std::uint32_t procs, std::uint32_t shards, ProtocolKind kind)
{
    SystemConfig cfg;
    cfg.numProcs = procs;
    cfg.protocol = kind;
    cfg.shards = shards;
    cfg.core.chunkInstrs = 250;
    cfg.core.chunksToRun = 4;
    return cfg;
}

/** Run one machine and snapshot its end-of-run stats. */
std::map<std::string, double>
runAndSnapshot(const SystemConfig& cfg, const SyntheticParams& p)
{
    System sys(cfg, makeStreams(cfg, p));
    sys.run(400'000'000);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_TRUE(sys.protocolQuiescent());
    StatSet set;
    sys.recordStats(set);
    return set.values();
}

TEST(ShardKernel, ShardedRunCommitsFullBudget)
{
    const SystemConfig cfg =
        shardedConfig(16, 4, ProtocolKind::ScalableBulk);
    System sys(cfg, makeStreams(cfg, conflictParams()));
    const Tick end = sys.run(400'000'000);
    EXPECT_GT(end, 0u);
    EXPECT_TRUE(sys.allCoresDone());
    EXPECT_TRUE(sys.protocolQuiescent());
    EXPECT_EQ(sys.metrics().commits.value(), 16u * 4u);
    // Every shard did real work and the engine ran window rounds.
    ASSERT_EQ(sys.shardStats().size(), 4u);
    for (const auto& s : sys.shardStats()) {
        EXPECT_GT(s.events, 0u);
        EXPECT_GT(s.windows, 0u);
    }
    EXPECT_GT(sys.shardWallSeconds(), 0.0);
}

TEST(ShardKernel, StatsIdenticalAcrossShardCounts)
{
    // The contract: for shards >= 2 the (when, key) canonical order is a
    // pure function of the config, so every statistic — commit counts,
    // latency histograms, gauge-derived samples, traffic, per-core
    // cycles — matches exactly between shard counts.
    const SyntheticParams p = conflictParams();
    const auto two =
        runAndSnapshot(shardedConfig(16, 2, ProtocolKind::ScalableBulk), p);
    const auto four =
        runAndSnapshot(shardedConfig(16, 4, ProtocolKind::ScalableBulk), p);
    const auto eight =
        runAndSnapshot(shardedConfig(16, 8, ProtocolKind::ScalableBulk), p);
    EXPECT_EQ(two, four);
    EXPECT_EQ(four, eight);
}

TEST(ShardKernel, StatsIdenticalForNonDividingShardCounts)
{
    // Nothing in the contract requires shards to divide the tile count:
    // odd counts leave some shards one tile wider, which is exactly where
    // a lookahead matrix over tile *sets* is stressed. 16 tiles across
    // 3/5/7 shards must still match the power-of-two snapshots.
    const SyntheticParams p = conflictParams();
    const auto two =
        runAndSnapshot(shardedConfig(16, 2, ProtocolKind::ScalableBulk), p);
    for (std::uint32_t shards : {3u, 5u, 7u}) {
        SCOPED_TRACE(shards);
        const auto odd = runAndSnapshot(
            shardedConfig(16, shards, ProtocolKind::ScalableBulk), p);
        EXPECT_EQ(two, odd);
    }
}

TEST(ShardKernel, StatsIdenticalAcrossShardMaps)
{
    // The tile->shard map is a performance knob only: explicit maps set
    // through SystemConfig::shardMap, whose regions the lookahead closure
    // must handle, produce the same statistics as the default contiguous
    // split at the same and at different shard counts.
    const SyntheticParams p = conflictParams();
    SystemConfig contiguous = shardedConfig(16, 4, ProtocolKind::ScalableBulk);
    const auto base = runAndSnapshot(contiguous, p);

    // An intentionally lopsided explicit map: shard 0 gets ten tiles,
    // the rest get two each. Stats must not notice.
    SystemConfig skewed = contiguous;
    skewed.shardMap.assign({0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3});
    EXPECT_EQ(base, runAndSnapshot(skewed, p));

    // A striped (round-robin) map at a different shard count.
    SystemConfig striped = shardedConfig(16, 3, ProtocolKind::ScalableBulk);
    striped.shardMap.resize(16);
    for (std::uint32_t t = 0; t < 16; ++t)
        striped.shardMap[t] = t % 3;
    EXPECT_EQ(base, runAndSnapshot(striped, p));
}

TEST(ShardKernel, StatsIdenticalAcrossShardCountsAllProtocols)
{
    const SyntheticParams p = conflictParams();
    for (ProtocolKind kind :
         {ProtocolKind::TCC, ProtocolKind::SEQ, ProtocolKind::BulkSC}) {
        SCOPED_TRACE(protocolName(kind));
        const auto two = runAndSnapshot(shardedConfig(8, 2, kind), p);
        const auto four = runAndSnapshot(shardedConfig(8, 4, kind), p);
        EXPECT_EQ(two, four);
    }
}

TEST(ShardKernel, DirectNetworkSharded)
{
    SystemConfig cfg = shardedConfig(8, 2, ProtocolKind::ScalableBulk);
    cfg.directNetwork = true;
    const SyntheticParams p = conflictParams();
    const auto two = runAndSnapshot(cfg, p);
    cfg.shards = 4;
    const auto four = runAndSnapshot(cfg, p);
    EXPECT_EQ(two, four);
}

TEST(ShardKernel, RepeatedRunsAreDeterministic)
{
    // Same config twice: thread scheduling must not leak into results.
    const SystemConfig cfg = shardedConfig(16, 4, ProtocolKind::ScalableBulk);
    const SyntheticParams p = conflictParams();
    EXPECT_EQ(runAndSnapshot(cfg, p), runAndSnapshot(cfg, p));
}

TEST(ShardKernel, SerialPathUnchangedByDefault)
{
    // shards defaults to 1 and the sharded kernel stays cold: no plan, no
    // shard stats, first-touch paging still in effect.
    SystemConfig cfg;
    cfg.numProcs = 4;
    cfg.core.chunkInstrs = 200;
    cfg.core.chunksToRun = 2;
    System sys(cfg, makeStreams(cfg, conflictParams()));
    sys.run(100'000'000);
    EXPECT_EQ(sys.shards(), 1u);
    EXPECT_TRUE(sys.shardStats().empty());
    EXPECT_EQ(sys.shardWallSeconds(), 0.0);
}

/** Resident-set size of this process in bytes (Linux /proc). */
std::size_t
residentBytes()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long total = 0, resident = 0;
    const int got = std::fscanf(f, "%lu %lu", &total, &resident);
    std::fclose(f);
    return got == 2 ? std::size_t(resident) * sysconf(_SC_PAGESIZE) : 0;
}

TEST(ShardKernel, ThousandTileSystemFitsMemoryBudget)
{
    // The sparse-state work (NodeSet sharer sets, lazily-allocated cache
    // tag arrays, on-demand directory entries) is what makes a 1024-tile
    // machine instantiable: dense 1024-way presence vectors plus eagerly
    // allocated tag arrays would cost ~0.4 MB per tile before the first
    // access. Construction of the full machine must stay well under that
    // dense footprint (~400 MB); 128 MB gives slack for the torus, queues
    // and workload state while still catching any densification.
    const std::size_t before = residentBytes();
    SystemConfig cfg = shardedConfig(1024, 8, ProtocolKind::ScalableBulk);
    System sys(cfg, makeStreams(cfg, conflictParams()));
    const std::size_t after = residentBytes();
    ASSERT_GT(before, 0u);
    ASSERT_GT(after, 0u);
    EXPECT_LT(after - before, 128u * 1024 * 1024)
        << "1024-tile construction grew RSS by "
        << (after - before) / (1024 * 1024) << " MB";
    EXPECT_EQ(sys.shards(), 8u);
}

TEST(ShardKernelDeath, DeliveryJitterIncompatibleWithShards)
{
    // Shard threads would call the hook unsynchronized.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SystemConfig cfg = shardedConfig(8, 2, ProtocolKind::ScalableBulk);
    EXPECT_DEATH(
        {
            System sys(cfg, makeStreams(cfg, conflictParams()));
            sys.network().setDeliveryJitter(
                [](const Message&) { return Tick(0); });
        },
        "jitter requires a serial network");
}

/** A direct network that claims one cycle more lookahead than its wire
 *  delivers: every cross-shard send undercuts the bound it advertises. */
class OverstatedNetwork : public DirectNetwork
{
  public:
    using DirectNetwork::DirectNetwork;

  protected:
    Tick
    pairLookahead(NodeId a, NodeId b) const override
    {
        return DirectNetwork::pairLookahead(a, b) + 1;
    }
};

/** Run two shards of 4 tiles on @p net: tile 0 sends one message to tile
 *  3, across the shard boundary. */
void
sendAcrossShards(Network& net)
{
    std::vector<std::uint64_t> tile_seq(4, 0);
    EventQueue q0, q1;
    q0.enableKeyedOrder(&tile_seq);
    q1.enableKeyedOrder(&tile_seq);
    ShardPlan plan(4, 2);
    ShardChannels chan(2);
    net.configureShards(&plan, {&q0, &q1}, &chan);
    for (NodeId n = 0; n < 4; ++n)
        net.registerHandler(n, Port::Dir, [](MessagePtr) {});
    q0.setExecTile(0);
    q0.schedule(0, [&] {
        net.send(std::make_unique<Message>(0, 3, Port::Dir,
                                           MsgClass::SmallCMessage, 0, 8));
    });
    ShardEngine engine(plan, {&q0, &q1}, chan, net.shardLookahead(),
                       /*total_cores=*/1, [](std::uint32_t) { return 0u; });
    engine.run(1000);
}

TEST(ShardKernelDeath, CrossShardSendUnderTheLookaheadPanics)
{
    // A window built on an overstated bound could run an event before a
    // message that precedes it; the send itself must catch that.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue serial;
    OverstatedNetwork net(serial, 4, 10);
    EXPECT_DEATH(sendAcrossShards(net), "under the shard 0 -> 1 lookahead");
}

} // namespace
} // namespace sbulk
