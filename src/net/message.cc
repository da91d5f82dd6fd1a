/**
 * @file
 * Thread-local size-bucketed pool behind Message::operator new/delete.
 *
 * Every protocol hop allocates at least one Message subclass and frees it a
 * few events later, which made malloc/free a measurable slice of simulation
 * time. Blocks are bucketed by 64-byte granules and recycled through
 * per-thread free lists; each block carries a one-word header naming its
 * bucket so the (unsized) delete can route it back without knowing the
 * dynamic type. Oversized requests fall through to malloc with a sentinel
 * header.
 *
 * Thread-local pools mean the parallel sweep workers never contend: each
 * sweep/checker worker owns a private System, so a message is always freed
 * on the thread that allocated it (the live-block list below relies on
 * this; the TSan CI job guards it).
 *
 * Every live block is additionally threaded onto a per-pool intrusive
 * list through its header. In-flight messages are carried across event
 * ticks as raw pointers inside trivially-copyable event closures (see
 * TorusNetwork::route) — ownership the leak checker cannot see and the
 * EventQueue destructor cannot reclaim. The pool destructor therefore
 * reaps whatever is still live at thread exit through Message's virtual
 * destructor, which keeps teardown with messages in flight leak-clean
 * without putting an allocation back on the hot path.
 */

#include "net/message.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace sbulk
{

namespace
{

/** Bucket granule; also keeps payloads 16-byte aligned after the header. */
constexpr std::size_t kGranule = 64;
/** Largest pooled block: 32 granules = 2 KiB (covers every protocol
 *  message, including ones embedding a pair of 2-Kbit signatures). */
constexpr std::size_t kBuckets = 32;
/** Header value for blocks that bypassed the pool. */
constexpr std::size_t kUnpooled = ~std::size_t(0);

struct MsgPool;

/** Block header: bucket index, the live-list links, the owning pool, and
 *  a dedicated remote-return stack link (so a block freed on another
 *  thread — sharded PDES runs deliver a message on a different shard
 *  thread than allocated it — can be routed back to its owner without
 *  touching the owner's live list). The payload follows at kHeader
 *  bytes, keeping its 16-byte alignment. */
struct BlockHeader
{
    std::size_t bucket;
    BlockHeader* prev;
    BlockHeader* next;
    MsgPool* owner;
    BlockHeader* rlink;
};

constexpr std::size_t kHeader = 48;
static_assert(sizeof(BlockHeader) <= kHeader && kHeader % 16 == 0);

struct FreeNode
{
    FreeNode* next;
};

struct MsgPool
{
    FreeNode* head[kBuckets] = {};
    /** Sentinel of the circular doubly-linked list of live blocks. */
    BlockHeader live{0, &live, &live, nullptr, nullptr};
    /**
     * Blocks this pool owns that were freed on *another* thread: a
     * lock-free MPSC stack (producers: foreign deleters; consumer: the
     * owner, which drains it before falling back to malloc and at
     * destruction). The blocks stay on the live list until the owner
     * drains them, so there is no cross-thread live-list surgery.
     */
    std::atomic<BlockHeader*> remote{nullptr};

    void
    unlink(BlockHeader* hdr)
    {
        hdr->prev->next = hdr->next;
        hdr->next->prev = hdr->prev;
    }

    void
    release(BlockHeader* hdr)
    {
        if (hdr->bucket == kUnpooled) {
            std::free(hdr);
            return;
        }
        // The free-list node overlays the header (its link lands on the
        // bucket field), so read the bucket first; rewritten on reuse.
        const std::size_t bucket = hdr->bucket;
        FreeNode* node = reinterpret_cast<FreeNode*>(hdr);
        node->next = head[bucket];
        head[bucket] = node;
    }

    /** Owner-side: reclaim foreign-freed blocks (dtor already ran). The
     *  live-list links are untouched by the remote push, so a plain
     *  unlink suffices. */
    void
    drainRemote()
    {
        BlockHeader* hdr = remote.exchange(nullptr,
                                           std::memory_order_acquire);
        while (hdr) {
            BlockHeader* next = hdr->rlink;
            unlink(hdr);
            release(hdr);
            hdr = next;
        }
    }

    ~MsgPool()
    {
        drainRemote();
        // Reap messages still in flight (owned by event closures that
        // were dropped with their EventQueue). Their destructors unlink
        // them and push the blocks onto the free lists...
        while (live.next != &live) {
            delete reinterpret_cast<Message*>(
                reinterpret_cast<char*>(live.next) + kHeader);
        }
        // ...which are then released wholesale.
        for (FreeNode*& list : head) {
            while (list) {
                FreeNode* next = list->next;
                std::free(list);
                list = next;
            }
        }
    }
};

thread_local MsgPool tls_pool;

void
linkLive(BlockHeader* hdr)
{
    hdr->prev = &tls_pool.live;
    hdr->next = tls_pool.live.next;
    hdr->next->prev = hdr;
    tls_pool.live.next = hdr;
    hdr->owner = &tls_pool;
}

} // namespace

void*
Message::operator new(std::size_t size)
{
    const std::size_t total = size + kHeader;
    if (total <= kBuckets * kGranule) {
        const std::size_t bucket = (total - 1) / kGranule;
        void* raw;
        if (FreeNode* node = tls_pool.head[bucket]) {
            tls_pool.head[bucket] = node->next;
            raw = node;
        } else {
            tls_pool.drainRemote();
            if (FreeNode* drained = tls_pool.head[bucket]) {
                tls_pool.head[bucket] = drained->next;
                raw = drained;
            } else {
                raw = std::malloc((bucket + 1) * kGranule);
                if (!raw)
                    throw std::bad_alloc{};
            }
        }
        auto* hdr = static_cast<BlockHeader*>(raw);
        hdr->bucket = bucket;
        linkLive(hdr);
        return static_cast<char*>(raw) + kHeader;
    }
    void* raw = std::malloc(total);
    if (!raw)
        throw std::bad_alloc{};
    auto* hdr = static_cast<BlockHeader*>(raw);
    hdr->bucket = kUnpooled;
    linkLive(hdr);
    return static_cast<char*>(raw) + kHeader;
}

void
Message::operator delete(void* p) noexcept
{
    if (!p)
        return;
    auto* hdr =
        reinterpret_cast<BlockHeader*>(static_cast<char*>(p) - kHeader);
    MsgPool* owner = hdr->owner;
    if (owner != &tls_pool) {
        // Freed on a foreign thread (cross-shard delivery): push onto the
        // owner's remote stack through the dedicated rlink, leaving the
        // live-list links intact for the owner's later unlink.
        BlockHeader* top = owner->remote.load(std::memory_order_relaxed);
        do {
            hdr->rlink = top;
        } while (!owner->remote.compare_exchange_weak(
            top, hdr, std::memory_order_release,
            std::memory_order_relaxed));
        return;
    }
    owner->unlink(hdr);
    owner->release(hdr);
}

void
Message::operator delete(void* p, std::size_t) noexcept
{
    Message::operator delete(p);
}

} // namespace sbulk
