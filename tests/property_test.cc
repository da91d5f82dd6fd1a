/**
 * @file
 * Property-based sweeps over configuration spaces: torus invariants for
 * every machine size, cache-array invariants for every geometry, and the
 * algebra of signatures.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/cache_array.hh"
#include "net/network.hh"
#include "sig/signature.hh"
#include "sim/random.hh"

namespace sbulk
{
namespace
{

// ------------------------------------------------------ torus properties

class TorusProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(TorusProperty, HopCountIsAMetric)
{
    EventQueue eq;
    TorusNetwork net(eq, GetParam());
    const NodeId n = GetParam();
    for (NodeId a = 0; a < n; ++a) {
        EXPECT_EQ(net.hopCount(a, a), 0u);
        for (NodeId b = 0; b < n; ++b) {
            EXPECT_EQ(net.hopCount(a, b), net.hopCount(b, a));
            if (a != b) {
                EXPECT_GE(net.hopCount(a, b), 1u);
            }
            // Triangle inequality through node 0.
            EXPECT_LE(net.hopCount(a, b),
                      net.hopCount(a, 0) + net.hopCount(0, b));
        }
    }
}

TEST_P(TorusProperty, DiameterBound)
{
    EventQueue eq;
    TorusNetwork net(eq, GetParam());
    const std::uint32_t bound = net.width() / 2 + net.height() / 2;
    for (NodeId a = 0; a < GetParam(); ++a)
        for (NodeId b = 0; b < GetParam(); ++b)
            EXPECT_LE(net.hopCount(a, b), bound);
}

TEST_P(TorusProperty, RandomTrafficAllDelivered)
{
    EventQueue eq;
    TorusNetwork net(eq, GetParam());
    std::uint64_t received = 0;
    for (NodeId node = 0; node < GetParam(); ++node)
        net.registerHandler(node, Port::Dir,
                            [&received](MessagePtr) { ++received; });
    Rng rng(GetParam());
    const int sent = 500;
    for (int i = 0; i < sent; ++i) {
        const NodeId src = NodeId(rng.below(GetParam()));
        const NodeId dst = NodeId(rng.below(GetParam()));
        net.send(std::make_unique<Message>(src, dst, Port::Dir,
                                           MsgClass::Other, 0, 16));
    }
    eq.run();
    EXPECT_EQ(received, std::uint64_t(sent));
}

TEST_P(TorusProperty, LinkOccupancyNeverExceedsElapsed)
{
    EventQueue eq;
    TorusNetwork net(eq, GetParam());
    for (NodeId node = 0; node < GetParam(); ++node)
        net.registerHandler(node, Port::Dir, [](MessagePtr) {});
    Rng rng(7 + GetParam());
    for (int i = 0; i < 300; ++i)
        net.send(std::make_unique<Message>(
            NodeId(rng.below(GetParam())), NodeId(rng.below(GetParam())),
            Port::Dir, MsgClass::Other, 0, 64));
    eq.run();
    for (NodeId node = 0; node < GetParam(); ++node)
        for (unsigned d = 0; d < 4; ++d)
            EXPECT_LE(net.linkBusy(node, d), eq.now());
}

INSTANTIATE_TEST_SUITE_P(Sizes, TorusProperty,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u),
                         [](const ::testing::TestParamInfo<std::uint32_t>&
                                info) {
                             return "n" + std::to_string(info.param);
                         });

// ------------------------------------------------------ cache properties

class CacheProperty : public ::testing::TestWithParam<CacheConfig>
{};

TEST_P(CacheProperty, InsertedLineIsPresentUntilEvicted)
{
    CacheArray cache(GetParam());
    Rng rng(11);
    std::set<Addr> resident;
    for (int i = 0; i < 2000; ++i) {
        const Addr line = rng.below(4096);
        auto ev = cache.insert(line, LineState::Shared);
        ASSERT_TRUE(ev.has_value());
        resident.insert(line);
        if (ev->happened)
            resident.erase(ev->line);
        // Spot-check a random resident line.
        const Addr probe = *resident.begin();
        EXPECT_NE(cache.probe(probe), nullptr);
    }
    // The cache contains exactly the lines the eviction log left behind.
    EXPECT_EQ(cache.numValid(), resident.size());
    for (Addr line : resident)
        EXPECT_NE(cache.probe(line), nullptr);
}

TEST_P(CacheProperty, OccupancyNeverExceedsCapacity)
{
    CacheArray cache(GetParam());
    Rng rng(13);
    const std::uint32_t capacity =
        GetParam().numSets() * GetParam().assoc;
    for (int i = 0; i < 3000; ++i) {
        cache.insert(rng.below(100000), LineState::Shared);
        ASSERT_LE(cache.numValid(), capacity);
    }
}

TEST_P(CacheProperty, SpeculativeLinesSurviveAnyInsertStorm)
{
    CacheArray cache(GetParam());
    Rng rng(17);
    // Pin one speculative line per set-0-mapped address.
    const Addr pinned = 0;
    cache.insert(pinned, LineState::Shared);
    cache.markSpeculative(pinned, 0);
    for (int i = 0; i < 2000; ++i)
        cache.insert(rng.below(100000), LineState::Shared);
    ASSERT_NE(cache.probe(pinned), nullptr);
    EXPECT_TRUE(cache.probe(pinned)->speculative());
}

// gtest prints each CacheConfig parameter as its raw bytes, padding
// included, and that text ends up in the ctest name. A constant of static
// storage has zero-filled padding, so the names are the same on every run;
// temporaries would carry whatever the stack held.
const CacheConfig kGeometries[] = {
    {4 * 1 * 32, 1, 32, 2, 8},    // direct
    {8 * 2 * 32, 2, 32, 2, 8},
    {32 * 1024, 4, 32, 2, 8},     // L1
    {512 * 1024, 8, 32, 8, 64},   // L2
    {16 * 16 * 64, 16, 64, 4, 8},
};

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty, ::testing::ValuesIn(kGeometries),
    [](const ::testing::TestParamInfo<CacheConfig>& info) {
        return std::to_string(info.param.sizeBytes) + "B" +
               std::to_string(info.param.assoc) + "w" +
               std::to_string(info.param.lineBytes) + "l";
    });

// -------------------------------------------------- signature algebra

TEST(SignatureAlgebra, UnionIsCommutative)
{
    Rng rng(19);
    for (int trial = 0; trial < 20; ++trial) {
        Signature a, b;
        for (int i = 0; i < 20; ++i) {
            a.insert(rng.next() >> 6);
            b.insert(rng.next() >> 6);
        }
        Signature ab = a, ba = b;
        ab.unionWith(b);
        ba.unionWith(a);
        EXPECT_EQ(ab, ba);
    }
}

TEST(SignatureAlgebra, UnionIsIdempotent)
{
    Rng rng(23);
    Signature a;
    for (int i = 0; i < 30; ++i)
        a.insert(rng.next() >> 6);
    Signature aa = a;
    aa.unionWith(a);
    EXPECT_EQ(aa, a);
}

TEST(SignatureAlgebra, UnionPreservesMembership)
{
    Rng rng(29);
    Signature a, b;
    std::vector<Addr> in_a, in_b;
    for (int i = 0; i < 25; ++i) {
        in_a.push_back(rng.next() >> 6);
        in_b.push_back(rng.next() >> 6);
        a.insert(in_a.back());
        b.insert(in_b.back());
    }
    a.unionWith(b);
    for (Addr x : in_a)
        EXPECT_TRUE(a.contains(x));
    for (Addr x : in_b)
        EXPECT_TRUE(a.contains(x));
}

TEST(SignatureAlgebra, IntersectionIsSymmetric)
{
    Rng rng(31);
    for (int trial = 0; trial < 50; ++trial) {
        Signature a, b;
        for (int i = 0; i < 15; ++i) {
            a.insert(rng.next() >> 6);
            if (rng.chance(0.3))
                b.insert(rng.next() >> 6);
        }
        EXPECT_EQ(a.intersects(b), b.intersects(a));
    }
}

TEST(SignatureAlgebra, SubsetAlwaysIntersectsSuperset)
{
    Rng rng(37);
    Signature small, big;
    for (int i = 0; i < 10; ++i) {
        const Addr x = rng.next() >> 6;
        small.insert(x);
        big.insert(x);
    }
    for (int i = 0; i < 30; ++i)
        big.insert(rng.next() >> 6);
    EXPECT_TRUE(small.intersects(big));
}

TEST(SignatureAlgebra, ClearIsAbsorbing)
{
    Signature a, b;
    a.insert(1);
    b.insert(1);
    a.clear();
    EXPECT_FALSE(a.intersects(b));
    a.unionWith(b);
    EXPECT_TRUE(a.intersects(b));
}

} // namespace
} // namespace sbulk
