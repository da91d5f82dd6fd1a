/**
 * @file
 * Unit tests for the interconnect models: delivery, routing distances,
 * contention serialization, and traffic accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/shard.hh"

namespace sbulk
{
namespace
{

MessagePtr
makeMsg(NodeId src, NodeId dst, Port port = Port::Dir,
        MsgClass cls = MsgClass::SmallCMessage, std::uint32_t bytes = 8)
{
    return std::make_unique<Message>(src, dst, port, cls, 0, bytes);
}

TEST(DirectNetwork, DeliversAfterFixedLatency)
{
    EventQueue eq;
    DirectNetwork net(eq, 4, 10);
    Tick arrived = 0;
    net.registerHandler(2, Port::Dir, [&](MessagePtr m) {
        arrived = eq.now();
        EXPECT_EQ(m->src, 1u);
    });
    eq.schedule(5, [&] { net.send(makeMsg(1, 2)); });
    eq.run();
    EXPECT_EQ(arrived, 15u);
}

TEST(DirectNetwork, LocalDeliveryIsOneCycle)
{
    EventQueue eq;
    DirectNetwork net(eq, 4, 10);
    Tick arrived = 0;
    net.registerHandler(3, Port::Proc, [&](MessagePtr) { arrived = eq.now(); });
    net.send(makeMsg(3, 3, Port::Proc));
    eq.run();
    EXPECT_EQ(arrived, 1u);
}

TEST(DirectNetwork, PortsAreIndependent)
{
    EventQueue eq;
    DirectNetwork net(eq, 2, 5);
    int proc_hits = 0, dir_hits = 0;
    net.registerHandler(1, Port::Proc, [&](MessagePtr) { ++proc_hits; });
    net.registerHandler(1, Port::Dir, [&](MessagePtr) { ++dir_hits; });
    net.send(makeMsg(0, 1, Port::Proc));
    net.send(makeMsg(0, 1, Port::Dir));
    net.send(makeMsg(0, 1, Port::Dir));
    eq.run();
    EXPECT_EQ(proc_hits, 1);
    EXPECT_EQ(dir_hits, 2);
}

TEST(TorusNetwork, DimensionsAreSquarest)
{
    EventQueue eq;
    TorusNetwork n64(eq, 64);
    EXPECT_EQ(n64.width(), 8u);
    EXPECT_EQ(n64.height(), 8u);
    TorusNetwork n32(eq, 32);
    EXPECT_EQ(n32.width() * n32.height(), 32u);
    EXPECT_EQ(n32.height(), 4u); // 8x4
}

TEST(TorusNetwork, HopCountUsesWraparound)
{
    EventQueue eq;
    TorusNetwork net(eq, 64); // 8x8
    EXPECT_EQ(net.hopCount(0, 0), 0u);
    EXPECT_EQ(net.hopCount(0, 1), 1u);
    EXPECT_EQ(net.hopCount(0, 7), 1u);  // wrap in X
    EXPECT_EQ(net.hopCount(0, 56), 1u); // wrap in Y (row 7)
    EXPECT_EQ(net.hopCount(0, 27), 3u + 3u); // (3,3)
    // Maximum distance on an 8x8 torus is 4+4.
    for (NodeId a = 0; a < 64; ++a)
        for (NodeId b = 0; b < 64; ++b)
            EXPECT_LE(net.hopCount(a, b), 8u);
}

TEST(TorusNetwork, HopCountIsSymmetric)
{
    EventQueue eq;
    TorusNetwork net(eq, 32);
    for (NodeId a = 0; a < 32; ++a)
        for (NodeId b = 0; b < 32; ++b)
            EXPECT_EQ(net.hopCount(a, b), net.hopCount(b, a));
}

TEST(TorusNetwork, DeliversToDestination)
{
    EventQueue eq;
    TorusNetwork net(eq, 16);
    bool got = false;
    net.registerHandler(9, Port::Dir, [&](MessagePtr m) {
        got = true;
        EXPECT_EQ(m->src, 0u);
        EXPECT_EQ(m->dst, 9u);
    });
    net.send(makeMsg(0, 9));
    eq.run();
    EXPECT_TRUE(got);
}

TEST(TorusNetwork, LatencyScalesWithHops)
{
    EventQueue eq;
    TorusNetwork net(eq, 64);
    Tick t1 = 0, t4 = 0;
    net.registerHandler(1, Port::Dir, [&](MessagePtr) { t1 = eq.now(); });
    net.registerHandler(4, Port::Dir, [&](MessagePtr) { t4 = eq.now(); });
    net.send(makeMsg(0, 1)); // 1 hop
    net.send(makeMsg(0, 4)); // 4 hops
    eq.run();
    EXPECT_GT(t1, 0u);
    // 4 hops should cost ~4x the per-hop latency of 1 hop.
    EXPECT_NEAR(double(t4), 4.0 * double(t1), double(t1));
}

TEST(TorusNetwork, EveryPairIsRoutable)
{
    EventQueue eq;
    TorusNetwork net(eq, 32);
    int received = 0;
    for (NodeId n = 0; n < 32; ++n)
        net.registerHandler(n, Port::Dir, [&](MessagePtr) { ++received; });
    int sent = 0;
    for (NodeId a = 0; a < 32; ++a) {
        for (NodeId b = 0; b < 32; ++b) {
            if (a == b)
                continue;
            net.send(makeMsg(a, b));
            ++sent;
        }
    }
    eq.run();
    EXPECT_EQ(received, sent);
}

TEST(TorusNetwork, ContentionSerializesSameLink)
{
    EventQueue eq;
    TorusNetwork net(eq, 64);
    // Many large messages 0 -> 1 share the single east link out of node 0;
    // arrival times must be spread by serialization, not simultaneous.
    std::vector<Tick> arrivals;
    net.registerHandler(1, Port::Dir,
                        [&](MessagePtr) { arrivals.push_back(eq.now()); });
    for (int i = 0; i < 10; ++i)
        net.send(makeMsg(0, 1, Port::Dir, MsgClass::LargeCMessage, 64));
    eq.run();
    ASSERT_EQ(arrivals.size(), 10u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GE(arrivals[i], arrivals[i - 1] + 4) // 64B/16B = 4 cycles
            << "messages " << i - 1 << " and " << i;
}

TEST(TorusNetwork, UncontendedPathsRunInParallel)
{
    EventQueue eq;
    TorusNetwork net(eq, 64);
    std::vector<Tick> arrivals(2, 0);
    net.registerHandler(1, Port::Dir,
                        [&](MessagePtr) { arrivals[0] = eq.now(); });
    net.registerHandler(15, Port::Dir,
                        [&](MessagePtr) { arrivals[1] = eq.now(); });
    net.send(makeMsg(0, 1));  // east out of 0
    net.send(makeMsg(8, 15)); // different row entirely
    eq.run();
    EXPECT_EQ(arrivals[0], arrivals[1]); // same distance, no interference
}

// The pairwise lookahead is hop count x the fewest cycles one hop can take
// (router pipeline + one flit + wire): 9 cycles with Table 2's 7-cycle
// links, and it follows the configured latencies.
TEST(TorusNetwork, LookaheadIsHopsTimesMinimumHopDelay)
{
    EventQueue eq;
    TorusNetwork net(eq, 256); // 16x16
    EXPECT_EQ(net.lookaheadMatrix(ShardPlan(256, 2)),
              (std::vector<Tick>{0, 9, 9, 0}));
    // Four bands of four rows: bands 0 and 2 are five rows apart either
    // way round the torus; band 3 wraps back onto band 0.
    const std::vector<Tick> four = net.lookaheadMatrix(ShardPlan(256, 4));
    EXPECT_EQ(four[0 * 4 + 1], 9u);
    EXPECT_EQ(four[0 * 4 + 2], 5u * 9);
    EXPECT_EQ(four[0 * 4 + 3], 9u);

    TorusConfig cfg;
    cfg.linkLatency = 3;
    cfg.routerLatency = 2;
    TorusNetwork custom(eq, 256, cfg);
    EXPECT_EQ(custom.lookaheadMatrix(ShardPlan(256, 2)),
              (std::vector<Tick>{0, 6, 6, 0}));
}

// The bound is tight: a one-flit message to an adjacent tile on idle links
// arrives exactly one lookahead after it is sent.
TEST(TorusNetwork, OneFlitHopArrivesExactlyAtTheLookahead)
{
    for (Tick link : {Tick(7), Tick(3)}) {
        EventQueue eq;
        TorusConfig cfg;
        cfg.linkLatency = link;
        TorusNetwork net(eq, 256, cfg);
        Tick arrived = 0;
        net.registerHandler(1, Port::Dir,
                            [&](MessagePtr) { arrived = eq.now(); });
        eq.schedule(100, [&] { net.send(makeMsg(0, 1)); });
        eq.run();
        // Tiles 0 and 1 alone in shards 0 and 1; the rest in shard 2.
        std::vector<std::uint32_t> map(256, 2);
        map[1] = 1;
        map[0] = 0;
        EXPECT_EQ(arrived - 100, net.lookaheadMatrix(ShardPlan(map, 3))[1]);
        EXPECT_EQ(arrived - 100, cfg.routerLatency + 1 + link);
    }
}

TEST(TrafficStats, CountsPerClass)
{
    EventQueue eq;
    TorusNetwork net(eq, 16);
    net.registerHandler(5, Port::Dir, [](MessagePtr) {});
    net.send(makeMsg(0, 5, Port::Dir, MsgClass::LargeCMessage, 64));
    net.send(makeMsg(0, 5, Port::Dir, MsgClass::SmallCMessage, 8));
    net.send(makeMsg(0, 5, Port::Dir, MsgClass::SmallCMessage, 8));
    eq.run();
    EXPECT_EQ(net.traffic().messages(MsgClass::LargeCMessage), 1u);
    EXPECT_EQ(net.traffic().messages(MsgClass::SmallCMessage), 2u);
    EXPECT_EQ(net.traffic().bytes(MsgClass::LargeCMessage), 64u);
    EXPECT_EQ(net.traffic().totalMessages(), 3u);
}

TEST(TrafficStats, HopsAccumulate)
{
    EventQueue eq;
    TorusNetwork net(eq, 64);
    net.registerHandler(4, Port::Dir, [](MessagePtr) {});
    net.send(makeMsg(0, 4)); // 4 hops
    eq.run();
    EXPECT_EQ(net.traffic().hops(MsgClass::SmallCMessage), 4u);
}

TEST(TrafficStats, ResetClears)
{
    TrafficStats t;
    t.record(MsgClass::MemRd, 40, 3);
    EXPECT_EQ(t.totalMessages(), 1u);
    t.reset();
    EXPECT_EQ(t.totalMessages(), 0u);
    EXPECT_EQ(t.bytes(MsgClass::MemRd), 0u);
}

TEST(MsgClassNames, AllDistinct)
{
    std::set<std::string> names;
    names.insert(msgClassName(MsgClass::MemRd));
    names.insert(msgClassName(MsgClass::RemoteShRd));
    names.insert(msgClassName(MsgClass::RemoteDirtyRd));
    names.insert(msgClassName(MsgClass::LargeCMessage));
    names.insert(msgClassName(MsgClass::SmallCMessage));
    names.insert(msgClassName(MsgClass::Other));
    EXPECT_EQ(names.size(), kNumMsgClasses);
}

} // namespace
} // namespace sbulk
