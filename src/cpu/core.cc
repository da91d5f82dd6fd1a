#include "cpu/core.hh"

namespace sbulk
{

Core::Core(NodeId id, EventQueue& eq, CacheHierarchy& caches, CoreConfig cfg)
    : _id(id), _eq(eq), _caches(caches), _cfg(cfg)
{}

void
Core::start()
{
    SBULK_ASSERT(_proto && _stream, "core %u started before wiring", _id);
    if (_started)
        return; // run() may be called in slices
    _started = true;
    if (_cfg.startDelay > 0) {
        _eq.scheduleIn(_cfg.startDelay, [this] { beginNextChunk(); });
    } else {
        beginNextChunk();
    }
}

Chunk*
Core::executingChunk()
{
    // The oldest chunk still in Executing state is the one issuing
    // instructions; younger Executing chunks (after a cascade squash) wait.
    for (auto& chunk : _chunks)
        if (chunk->state() == ChunkState::Executing)
            return chunk.get();
    return nullptr;
}

Chunk*
Core::oldestChunk()
{
    return _chunks.empty() ? nullptr : _chunks.front().get();
}

void
Core::beginNextChunk()
{
    if (_chunksStarted >= _cfg.chunksToRun)
        return;
    if (_chunks.size() >= 2) {
        SBULK_PANIC("core %u chunk slots exhausted: chunk0 state=%d seq=%llu "
                    "chunk1 state=%d seq=%llu stall=%llu",
                    _id, int(_chunks[0]->state()),
                    (unsigned long long)_chunks[0]->tag().seq,
                    int(_chunks[1]->state()),
                    (unsigned long long)_chunks[1]->tag().seq,
                    (unsigned long long)_stallStart);
    }

    auto chunk = std::make_unique<Chunk>(ChunkTag{_id, _nextSeq++},
                                         _nextSlot, _cfg.sigCfg);
    _nextSlot ^= 1u;
    ++_chunksStarted;
    chunk->execStart = _eq.now();
    _instrsInChunk = 0;
    _replayIdx = 0;
    _chunks.push_back(std::move(chunk));
    scheduleNextOp(1);
}

void
Core::scheduleNextOp(Tick delay)
{
    const std::uint64_t epoch = _epoch;
    _eq.scheduleIn(delay, [this, epoch] {
        if (epoch == _epoch)
            executeOp();
    });
}

MemOp
Core::nextOp(Chunk& chunk)
{
    if (_carryOp) {
        MemOp op = *_carryOp;
        _carryOp.reset();
        chunk.logOp(op);
        _replayIdx = chunk.ops().size();
        return op;
    }
    if (_replayIdx < chunk.ops().size())
        return chunk.ops()[_replayIdx++];
    MemOp op = _stream->next();
    chunk.logOp(op);
    _replayIdx = chunk.ops().size();
    return op;
}

void
Core::executeOp()
{
    Chunk* exec = executingChunk();
    SBULK_ASSERT(exec, "core %u has no executing chunk", _id);

    if (_instrsInChunk >= _cfg.chunkInstrs) {
        completeChunk();
        return;
    }

    const MemOp op = nextOp(*exec);
    const std::uint32_t work = op.gap + 1;

    const Addr line = _caches.lineOf(op.addr);
    // The home query is a hash lookup with a first-touch side effect; the
    // chunk consults it lazily, only the first time it records the line
    // (repeat records are no-ops — see Chunk::recordRead).
    const auto lazyHome = [&] { return _caches.homeOf(op.addr); };

    if (op.isWrite) {
        const StoreResult res = _caches.store(op.addr, exec->slot());
        if (res == StoreResult::Overflow) {
            // The pre-lazy-home code queried the home before every op, so
            // an overflow-aborted store still counted as a page toucher.
            // Preserve that: first-touch assignment must not shift to
            // whichever core touches the page next.
            _caches.homeOf(op.addr);
            _stats.chunkOverflows.inc();
            // Give the op back; it belongs to whatever executes next.
            _carryOp = MemOp{0, true, op.addr, op.tenant, op.endChunk};
            if (!exec->writeSet().empty()) {
                // Truncate: committing this chunk's own speculative lines
                // frees its ways (the paper's reduced-chunk-size effect).
                completeChunk();
            } else {
                // Nothing of ours to retire: the set is full of the older
                // chunk's speculative data; wait for its commit.
                _stats.commitStallCycles.inc(_cfg.overflowRetryDelay);
                scheduleNextOp(_cfg.overflowRetryDelay);
            }
            return;
        }
        exec->usefulCycles += work;
        _instrsInChunk += work;
        if (op.endChunk) {
            // Trace-marked transaction boundary: the next executeOp()
            // completes the chunk regardless of the instruction budget.
            _instrsInChunk = _cfg.chunkInstrs;
        }
        exec->recordWrite(line, lazyHome);
        // Stores retire through the write buffer: no stall.
        scheduleNextOp(work);
        return;
    }

    exec->usefulCycles += work;
    _instrsInChunk += work;
    if (op.endChunk)
        _instrsInChunk = _cfg.chunkInstrs;
    exec->recordRead(line, lazyHome);

    // Probe for the (common) L1 hit before building the miss-completion
    // callback: its captures exceed std::function's inline buffer, so
    // constructing it unconditionally would heap-allocate on every load.
    if (_caches.loadHit(op.addr)) {
        if (_observer)
            _observer->onChunkRead(_id, exec->tag(), line);
        scheduleNextOp(work);
        return;
    }

    const Tick issued = _eq.now();
    const std::uint64_t epoch = _epoch;
    const bool hit =
        _caches.load(op.addr, [this, epoch, issued, work, line] {
            if (epoch != _epoch)
                return; // squashed meanwhile; replay will reissue
            Chunk* chunk = executingChunk();
            SBULK_ASSERT(chunk, "miss completion with no executing chunk");
            // The value observed is the one at *data arrival*: a commit
            // landing during the miss is ordered before this read.
            if (_observer)
                _observer->onChunkRead(_id, chunk->tag(), line);
            const Tick elapsed = _eq.now() - issued;
            if (elapsed > work)
                chunk->missStallCycles += elapsed - work;
            scheduleNextOp(1);
        });
    SBULK_ASSERT(!hit, "loadHit() missed but load() hit");
    (void)hit;
}

void
Core::completeChunk()
{
    Chunk* exec = executingChunk();
    SBULK_ASSERT(exec);
    exec->setState(ChunkState::Completed);
    exec->execComplete = _eq.now();

    maybeRequestCommit();

    if (Chunk* next = executingChunk()) {
        // A younger chunk reset by a cascade squash was waiting its turn:
        // move the execution cursor to it and resume.
        next->execStart = _eq.now();
        _instrsInChunk = 0;
        _replayIdx = 0;
        scheduleNextOp(1);
        return;
    }

    // Start the next chunk if a slot is free; otherwise the core idles in
    // a commit stall until the oldest chunk commits.
    if (_chunks.size() < 2 && _chunksStarted < _cfg.chunksToRun) {
        beginNextChunk();
    } else {
        enterCommitStall();
    }
}

void
Core::maybeRequestCommit()
{
    Chunk* front = oldestChunk();
    if (!front || front->state() != ChunkState::Completed)
        return;
    front->setState(ChunkState::Committing);
    if (front->commitRequested == 0)
        front->commitRequested = _eq.now();
    _proto->startCommit(*front);
}

void
Core::chunkCommitted(ChunkTag tag)
{
    Chunk* front = oldestChunk();
    SBULK_ASSERT(front && front->tag() == tag,
                 "commit completion for unexpected chunk");
    front->setState(ChunkState::Committed);
    front->committedAt = _eq.now();
    _caches.commitSlot(front->slot());
    if (_observer)
        _observer->onChunkCommitted(_id, tag, front->writeLines(), _eq.now());

    _stats.usefulCycles.inc(front->usefulCycles);
    _stats.missStallCycles.inc(front->missStallCycles);
    _stats.chunksCommitted.inc();
    TenantAccum& tenant = _tenants[front->tenant()];
    ++tenant.commits;
    tenant.commitLatency.sample(front->committedAt - front->commitRequested);
    _chunks.pop_front();

    leaveCommitStall();

    // The next chunk may have been waiting to send its commit request.
    maybeRequestCommit();

    const bool budget_left = _chunksStarted < _cfg.chunksToRun;
    if (!executingChunk()) {
        if (_chunks.size() < 2 && budget_left) {
            beginNextChunk();
        } else if (_chunks.empty() && !budget_left) {
            _finished = true;
            _stats.finishTick = _eq.now();
        } else if (!_chunks.empty()) {
            // Still waiting on the (now oldest) committing chunk.
            enterCommitStall();
        }
    }
}

InvOutcome
Core::applyBulkInv(const Signature& w, const std::vector<Addr>& lines,
                   ChunkTag committer, ChunkTag exempt)
{
    InvOutcome outcome;

    // Invalidate the committed lines from the caches (exact-line stand-in
    // for the hardware's signature walk; see DESIGN.md).
    _caches.invalidateLines(lines);

    // Chunk disambiguation: intersect the incoming W signature against
    // every in-flight chunk, oldest first (Section 3.1).
    for (std::size_t i = 0; i < _chunks.size(); ++i) {
        Chunk& chunk = *_chunks[i];
        if (chunk.state() == ChunkState::Committed ||
            chunk.tag() == exempt) {
            continue;
        }
        if (w.intersects(chunk.rSig()) || w.intersects(chunk.wSig())) {
            outcome.squashedAny = true;
            outcome.squashedCommitting =
                chunk.state() == ChunkState::Committing;
            outcome.committingTag = chunk.tag();
            outcome.wasTrueConflict = chunk.trulyConflictsWith(lines);
            squashFrom(i, SquashReason::Conflict, committer, &w, &lines);
            break;
        }
    }
    return outcome;
}

InvOutcome
Core::applyLineInv(const std::vector<Addr>& lines, ChunkTag committer,
                   ChunkTag exempt)
{
    InvOutcome outcome;
    _caches.invalidateLines(lines);

    // Exact-set disambiguation: no signatures, no aliasing (Scalable TCC
    // tracks read/write sets in the cache tags).
    for (std::size_t i = 0; i < _chunks.size(); ++i) {
        Chunk& chunk = *_chunks[i];
        if (chunk.state() == ChunkState::Committed ||
            chunk.tag() == exempt) {
            continue;
        }
        if (chunk.trulyConflictsWith(lines)) {
            outcome.squashedAny = true;
            outcome.squashedCommitting =
                chunk.state() == ChunkState::Committing;
            outcome.committingTag = chunk.tag();
            outcome.wasTrueConflict = true;
            squashFrom(i, SquashReason::Conflict, committer,
                       /*commit_w=*/nullptr, &lines);
            break;
        }
    }
    return outcome;
}

void
Core::chunkMustSquash(ChunkTag tag)
{
    for (std::size_t i = 0; i < _chunks.size(); ++i) {
        if (_chunks[i]->tag() == tag) {
            squashFrom(i, SquashReason::ProtocolKill);
            return;
        }
    }
    SBULK_PANIC("protocol squashed unknown chunk");
}

void
Core::squashFrom(std::size_t first_idx, SquashReason why,
                 const ChunkTag& committer, const Signature* commit_w,
                 const std::vector<Addr>* commit_lines)
{
    ++_epoch; // kill in-flight execution callbacks

    for (std::size_t i = first_idx; i < _chunks.size(); ++i) {
        Chunk& chunk = *_chunks[i];
        if (_observer) {
            // Only the first chunk was squashed for cause; the younger
            // ones cascade (they may have consumed its forwarded data).
            const SquashReason r =
                i == first_idx ? why : SquashReason::Cascade;
            _observer->onChunkSquashed(
                _id, chunk, r, committer,
                r == SquashReason::Conflict ? commit_w : nullptr,
                r == SquashReason::Conflict ? commit_lines : nullptr);
        }
        _stats.squashWasteCycles.inc(chunk.usefulCycles +
                                     chunk.missStallCycles);
        chunk.usefulCycles = 0;
        chunk.missStallCycles = 0;
        _caches.squashSlot(chunk.slot(), chunk.writeLines());
        chunk.resetForReplay();
        chunk.rename(ChunkTag{_id, _nextSeq++});
        chunk.commitRequested = 0;
        _stats.chunksSquashed.inc();
        ++_tenants[chunk.tenant()].squashes;
    }

    // If the core was idle waiting on a commit that just died, account the
    // stall and resume.
    leaveCommitStall();

    // Restart execution at the oldest squashed chunk.
    Chunk& restart = *_chunks[first_idx];
    restart.execStart = _eq.now();
    _instrsInChunk = 0;
    _replayIdx = 0;
    _carryOp.reset();
    if (&restart == executingChunk())
        scheduleNextOp(1);
}

void
Core::enterCommitStall()
{
    if (_stallStart == kMaxTick)
        _stallStart = _eq.now();
}

void
Core::leaveCommitStall()
{
    if (_stallStart != kMaxTick) {
        _stats.commitStallCycles.inc(_eq.now() - _stallStart);
        _stallStart = kMaxTick;
    }
}

} // namespace sbulk
