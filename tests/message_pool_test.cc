/**
 * @file
 * Unit tests for the thread-local message pool behind Message::operator
 * new/delete: freed blocks are reused within their size bucket, buckets
 * never share blocks, oversized messages bypass the pool, and a block
 * freed on a foreign thread returns to its owner's pool.
 *
 * Each case runs on a fresh thread so it starts from an empty pool, no
 * matter what other tests in this binary allocated before it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <thread>

#include "net/message.hh"

namespace sbulk
{
namespace
{

/** A message whose payload size selects the pool bucket. */
template <std::size_t N>
struct Sized : Message
{
    unsigned char payload[N] = {};
};

using Small = Sized<8>;       // a one- or two-granule bucket
using Large = Sized<512>;     // a bucket several granules up
using Oversized = Sized<4096>; // beyond the 2 KiB pooled maximum

static_assert(sizeof(Large) >= sizeof(Small) + 256,
              "Small and Large must land in different buckets");

template <class F>
void
onFreshThread(F body)
{
    std::thread t(body);
    t.join();
}

TEST(MessagePool, FreedBlockIsReusedForTheSameSize)
{
    onFreshThread([] {
        auto* first = new Small;
        void* const block = first;
        delete first;
        auto* second = new Small;
        EXPECT_EQ(static_cast<void*>(second), block);
        delete second;
    });
}

TEST(MessagePool, BucketsNeverShareBlocks)
{
    onFreshThread([] {
        auto* small = new Small;
        void* const smallBlock = small;
        delete small;
        auto* large = new Large;
        EXPECT_NE(static_cast<void*>(large), smallBlock);
        void* const largeBlock = large;
        delete large;
        auto* again = new Small;
        EXPECT_NE(static_cast<void*>(again), largeBlock);
        delete again;
    });
}

TEST(MessagePool, OversizedMessageRoundTrips)
{
    onFreshThread([] {
        // Writing the whole payload traps under ASan if the unpooled
        // block were sized short.
        auto* big = new Oversized;
        big->kind = 7;
        std::memset(big->payload, 0xab, sizeof(big->payload));
        EXPECT_EQ(big->payload[sizeof(big->payload) - 1], 0xab);
        EXPECT_EQ(big->kind, 7u);
        delete big;
    });
}

TEST(MessagePool, ForeignFreeReturnsToOwnerThroughDrainRemote)
{
    onFreshThread([] {
        auto* msg = new Small;
        void* const block = msg;
        // Deleted on another thread: pushed onto this pool's remote
        // stack, drained here by the next allocation that misses.
        std::thread([msg] { delete msg; }).join();
        auto* again = new Small;
        EXPECT_EQ(static_cast<void*>(again), block);
        delete again;
    });
}

} // namespace
} // namespace sbulk
