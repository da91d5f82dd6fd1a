/**
 * @file
 * Edge cases of the cache hierarchy and directory beyond the main
 * memory-system suite: dirty-eviction writebacks, store overflow, forward
 * reads to downgraded/absent lines, nack-retry interleavings, and the
 * inclusion property.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/directory.hh"
#include "mem/hierarchy.hh"
#include "mem/page_map.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace sbulk
{
namespace
{

class HierarchyEdge : public ::testing::Test
{
  protected:
    static constexpr std::uint32_t kNodes = 2;

    void
    SetUp() override
    {
        // Tiny L2 (4 sets x 2 ways) makes evictions easy to provoke.
        cfg.l2 = CacheConfig{4 * 2 * 32, 2, 32, 8, 64};
        cfg.l1 = CacheConfig{2 * 2 * 32, 2, 32, 2, 8};
        net = std::make_unique<DirectNetwork>(eq, kNodes, 5);
        pages = std::make_unique<FirstTouchMap>(kNodes);
        for (NodeId n = 0; n < kNodes; ++n) {
            caches.push_back(
                std::make_unique<CacheHierarchy>(n, *net, *pages, cfg));
            dirs.push_back(std::make_unique<Directory>(n, *net, cfg));
            net->registerHandler(n, Port::Proc, [this, n](MessagePtr m) {
                caches[n]->handleMessage(std::move(m));
            });
            net->registerHandler(n, Port::Dir, [this, n](MessagePtr m) {
                dirs[n]->handleMessage(std::move(m));
            });
        }
    }

    /** Address of line index @p i within L2 set @p set. */
    Addr
    setAddr(std::uint32_t set, std::uint32_t i) const
    {
        const std::uint32_t sets = cfg.l2.numSets();
        return Addr(i * sets + set) * cfg.l2.lineBytes;
    }

    EventQueue eq;
    MemConfig cfg;
    std::unique_ptr<DirectNetwork> net;
    std::unique_ptr<FirstTouchMap> pages;
    std::vector<std::unique_ptr<CacheHierarchy>> caches;
    std::vector<std::unique_ptr<Directory>> dirs;
};

TEST_F(HierarchyEdge, DirtyEvictionSendsWritebackAndClearsOwnership)
{
    // Commit a written line, then force its eviction by filling the set.
    caches[0]->store(setAddr(0, 0), 0);
    caches[0]->commitSlot(0);
    eq.run();
    const Addr line0 = cfg.lineOf(setAddr(0, 0));
    dirs[0]->commitLine(line0, 0);
    ASSERT_TRUE(dirs[0]->peek(line0)->dirty);

    // Two more lines in set 0 evict the dirty one (2-way).
    caches[0]->store(setAddr(0, 1), 0);
    caches[0]->commitSlot(0);
    caches[0]->store(setAddr(0, 2), 0);
    eq.run();
    EXPECT_GE(caches[0]->stats().writebacks.value(), 1u);
    // The writeback reached the home directory: ownership cleared.
    const DirEntry* entry = dirs[0]->peek(line0);
    EXPECT_TRUE(entry == nullptr || !entry->dirty);
}

TEST_F(HierarchyEdge, StoreOverflowWhenSetIsAllSpeculative)
{
    EXPECT_EQ(caches[0]->store(setAddr(0, 0), 0), StoreResult::Done);
    EXPECT_EQ(caches[0]->store(setAddr(0, 1), 1), StoreResult::Done);
    // Third speculative store to the same set: both ways pinned.
    EXPECT_EQ(caches[0]->store(setAddr(0, 2), 0), StoreResult::Overflow);
    EXPECT_EQ(caches[0]->stats().overflows.value(), 1u);
    // Committing a slot frees its way; the store now succeeds.
    caches[0]->commitSlot(0);
    EXPECT_EQ(caches[0]->store(setAddr(0, 2), 0), StoreResult::Done);
    eq.run();
}

TEST_F(HierarchyEdge, InclusionL2EvictionDropsL1Copy)
{
    // Load brings the line into both levels.
    bool done = false;
    caches[0]->load(setAddr(0, 0), [&] { done = true; });
    eq.run();
    ASSERT_TRUE(done);
    const Addr line0 = cfg.lineOf(setAddr(0, 0));
    ASSERT_NE(caches[0]->l1().probe(line0), nullptr);

    // Evict it from L2 (fill the set with stores).
    caches[0]->store(setAddr(0, 1), 0);
    caches[0]->commitSlot(0);
    caches[0]->store(setAddr(0, 2), 0);
    caches[0]->commitSlot(0);
    caches[0]->store(setAddr(0, 3), 0);
    eq.run();
    if (caches[0]->l2().probe(line0) == nullptr) {
        EXPECT_EQ(caches[0]->l1().probe(line0), nullptr)
            << "inclusion violated";
    }
}

TEST_F(HierarchyEdge, FwdReadToDowngradedLineStillReplies)
{
    // Proc 0 owns a dirty line; two successive remote reads: the second
    // finds it already downgraded (Shared) at the owner.
    caches[0]->store(setAddr(1, 0), 0);
    caches[0]->commitSlot(0);
    eq.run();
    const Addr line = cfg.lineOf(setAddr(1, 0));
    dirs[0]->commitLine(line, 0);

    int done = 0;
    caches[1]->load(setAddr(1, 0), [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 1);
    EXPECT_EQ(dirs[0]->stats().remoteDirtyReads.value(), 1u);
    // Second read: directory now serves it as a shared remote read.
    caches[1]->invalidateLines({line});
    caches[1]->load(setAddr(1, 0), [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(dirs[0]->stats().remoteShReads.value(), 1u);
}

TEST_F(HierarchyEdge, NackedMissEventuallyCompletesThroughRetries)
{
    int gate_hits = 0;
    bool blocked = true;
    dirs[0]->setReadGate([&](Addr) {
        ++gate_hits;
        return blocked;
    });
    // Home the page at tile 0 first (gate counts that one too).
    blocked = false;
    bool warm = false;
    caches[0]->load(0x0, [&] { warm = true; });
    eq.run();
    ASSERT_TRUE(warm);

    blocked = true;
    bool done = false;
    caches[1]->load(0x40, [&] { done = true; });
    // Let several retries bounce.
    eq.run(eq.now() + 5 * cfg.readRetryDelay);
    EXPECT_FALSE(done);
    EXPECT_GE(caches[1]->stats().readNacks.value(), 2u);
    blocked = false;
    eq.run();
    EXPECT_TRUE(done);
}

TEST_F(HierarchyEdge, UncachedFillWhenSetFullySpeculative)
{
    // Both ways of set 0 speculative, then a *load* to a third line of
    // that set: the data arrives but cannot be cached; the load still
    // completes.
    caches[0]->store(setAddr(0, 0), 0);
    caches[0]->store(setAddr(0, 1), 1);
    eq.run();
    bool done = false;
    caches[0]->load(setAddr(0, 2), [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(caches[0]->l2().probe(cfg.lineOf(setAddr(0, 2))), nullptr);
}

TEST_F(HierarchyEdge, SquashOfUnfetchedStoreLeavesNoResidue)
{
    // Store-allocate, squash before the background fetch returns, then
    // drain: the late fill must not resurrect speculative state.
    caches[0]->store(setAddr(2, 0), 0);
    const Addr line = cfg.lineOf(setAddr(2, 0));
    caches[0]->squashSlot(0, {line});
    EXPECT_EQ(caches[0]->l2().probe(line), nullptr);
    eq.run(); // the fetch reply arrives and refills as a clean line
    const CacheLine* entry = caches[0]->l2().probe(line);
    if (entry != nullptr) {
        EXPECT_FALSE(entry->speculative());
        EXPECT_EQ(entry->state, LineState::Shared);
    }
}

} // namespace
} // namespace sbulk
