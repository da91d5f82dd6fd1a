/**
 * @file
 * Equivalence tests for the sparse NodeSet that replaced the old 64-bit
 * presence masks: randomized operation sequences are mirrored against a
 * full-map oracle (a plain uint64 mask for <= 64 tiles, a std::set for
 * the post-64-tile range) and every observable — membership, count,
 * first(), iteration order, set algebra — must agree after each step.
 * Also pins the inline->bitmap spill boundary and the 1024-tile memory
 * budget that motivated the sparse representation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "sim/node_set.hh"

namespace
{

using namespace sbulk;

/** Reference model: a sorted std::set plus the mask view when ids < 64. */
class Oracle
{
  public:
    void insert(NodeId n) { _ids.insert(n); }
    void erase(NodeId n) { _ids.erase(n); }
    bool contains(NodeId n) const { return _ids.count(n) != 0; }
    std::size_t count() const { return _ids.size(); }

    std::vector<NodeId>
    sorted() const
    {
        return std::vector<NodeId>(_ids.begin(), _ids.end());
    }

    std::uint64_t
    mask() const
    {
        std::uint64_t m = 0;
        for (NodeId n : _ids)
            m |= std::uint64_t(1) << n;
        return m;
    }

  private:
    std::set<NodeId> _ids;
};

/** Every observable of @p s must match the oracle. */
void
expectEquivalent(const NodeSet& s, const Oracle& o, std::uint32_t tiles)
{
    ASSERT_EQ(s.count(), o.count());
    ASSERT_EQ(s.empty(), o.count() == 0);
    // Membership over the full id range (checks false positives too).
    for (NodeId n = 0; n < tiles; ++n)
        ASSERT_EQ(s.contains(n), o.contains(n)) << "id " << n;
    // Iteration must be ascending and complete — the determinism contract
    // every protocol loop relies on.
    ASSERT_EQ(s.toVector(), o.sorted());
    if (!s.empty()) {
        ASSERT_EQ(s.first(), o.sorted().front());
    }
    if (tiles <= 64) {
        ASSERT_EQ(s.toMask64(), o.mask());
    }
}

/** Randomized insert/erase/clear sequence at a given tile count. */
void
randomizedOps(std::uint32_t tiles, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint32_t> pick_id(0, tiles - 1);
    std::uniform_int_distribution<int> pick_op(0, 99);

    NodeSet s;
    Oracle o;
    for (int step = 0; step < 600; ++step) {
        const NodeId n = NodeId(pick_id(rng));
        const int op = pick_op(rng);
        if (op < 55) {
            s.insert(n);
            o.insert(n);
        } else if (op < 95) {
            s.erase(n);
            o.erase(n);
        } else {
            s.clear();
            o = Oracle{};
        }
        ASSERT_NO_FATAL_FAILURE(expectEquivalent(s, o, tiles))
            << "tiles " << tiles << " seed " << seed << " step " << step;
    }
}

TEST(NodeSet, RandomizedOpsMatchMaskOracleSmallMachines)
{
    // The 2..64-tile range the old ProcMask code covered; several seeds
    // per size so both representations (inline and spilled) are hit.
    for (std::uint32_t tiles : {2u, 3u, 7u, 16u, 33u, 64u})
        for (std::uint64_t seed : {1ull, 2ull, 3ull})
            randomizedOps(tiles, seed * 1000 + tiles);
}

TEST(NodeSet, RandomizedOpsMatchSetOracleLargeMachines)
{
    // Past the 64-tile mask limit: ids up to 1024 exercise the bitmap
    // growth path (word index > 0) that masks could never represent.
    for (std::uint32_t tiles : {65u, 256u, 1024u})
        for (std::uint64_t seed : {11ull, 12ull})
            randomizedOps(tiles, seed * 1000 + tiles);
}

TEST(NodeSet, SpillBoundaryPreservesContents)
{
    // kInlineCap is 6: the 7th insert crosses into the bitmap. Cross the
    // boundary with ids arriving in descending order (worst case for the
    // sorted inline array) and verify contents at every size.
    NodeSet s;
    Oracle o;
    for (int n = 12; n >= 0; n -= 2) {
        s.insert(NodeId(n));
        o.insert(NodeId(n));
        ASSERT_NO_FATAL_FAILURE(expectEquivalent(s, o, 64));
    }
    // Shrinking back below the inline capacity must stay consistent
    // (the representation may stay spilled; observables may not change).
    for (int n = 0; n <= 12; n += 2) {
        s.erase(NodeId(n));
        o.erase(NodeId(n));
        ASSERT_NO_FATAL_FAILURE(expectEquivalent(s, o, 64));
    }
    EXPECT_TRUE(s.empty());
}

TEST(NodeSet, SetAlgebraMatchesOracle)
{
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<std::uint32_t> pick_id(0, 1023);
    for (int round = 0; round < 50; ++round) {
        NodeSet a, b;
        Oracle oa, ob;
        const int na = int(rng() % 12), nb = int(rng() % 12);
        for (int i = 0; i < na; ++i) {
            const NodeId n = NodeId(pick_id(rng));
            a.insert(n);
            oa.insert(n);
        }
        for (int i = 0; i < nb; ++i) {
            const NodeId n = NodeId(pick_id(rng));
            b.insert(n);
            ob.insert(n);
        }

        // Union.
        {
            NodeSet u = a | b;
            Oracle ou = oa;
            for (NodeId n : ob.sorted())
                ou.insert(n);
            ASSERT_NO_FATAL_FAILURE(expectEquivalent(u, ou, 1024));
        }
        // Intersection (and the boolean shortcut).
        {
            NodeSet ix = a.intersect(b);
            Oracle oi;
            for (NodeId n : oa.sorted())
                if (ob.contains(n))
                    oi.insert(n);
            ASSERT_NO_FATAL_FAILURE(expectEquivalent(ix, oi, 1024));
            ASSERT_EQ(a.intersects(b), oi.count() != 0);
        }
        // Difference via removeAll, and single-id without().
        {
            NodeSet d = a;
            d.removeAll(b);
            Oracle od;
            for (NodeId n : oa.sorted())
                if (!ob.contains(n))
                    od.insert(n);
            ASSERT_NO_FATAL_FAILURE(expectEquivalent(d, od, 1024));
            if (!a.empty()) {
                const NodeId n = a.first();
                NodeSet w = a.without(n);
                Oracle ow = oa;
                ow.erase(n);
                ASSERT_NO_FATAL_FAILURE(expectEquivalent(w, ow, 1024));
            }
        }
        // Equality is structural, not representational: rebuild b's
        // contents in a fresh set and compare both directions.
        {
            NodeSet b2;
            for (NodeId n : ob.sorted())
                b2.insert(n);
            ASSERT_EQ(b, b2);
            ASSERT_EQ(b2, b);
            ASSERT_EQ(a == b, oa.sorted() == ob.sorted());
            ASSERT_EQ(a != b, oa.sorted() != ob.sorted());
        }
    }
}

TEST(NodeSet, OfBuildsTheExactSet)
{
    const NodeSet s = NodeSet::of(5, 1, 900, 5);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_TRUE(s.contains(1) && s.contains(5) && s.contains(900));
    EXPECT_EQ(s.first(), 1u);
}

} // namespace
