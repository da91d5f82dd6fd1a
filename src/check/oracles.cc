#include "check/oracles.hh"

#include <algorithm>

#include "chunk/chunk.hh"
#include "sig/signature.hh"
#include "sim/event_queue.hh"

namespace sbulk
{
namespace check
{

namespace
{

std::string
tagStr(const ChunkTag& tag)
{
    return detail::formatMsg("(%u,%llu)", unsigned(tag.proc),
                             (unsigned long long)tag.seq);
}

std::string
idStr(const CommitId& id)
{
    return tagStr(id.tag) + "#" + std::to_string(id.attempt);
}

} // namespace

void
OracleSuite::report(const char* oracle, std::string detail)
{
    _violations.push_back(Violation{oracle, std::move(detail), now()});
}

Tick
OracleSuite::now() const
{
    return _eq ? _eq->now() : 0;
}

// ------------------------------------------------------- commit uniqueness

void
OracleSuite::onCommitRequested(NodeId proc, const CommitId& id,
                               const Chunk& chunk)
{
    (void)proc;
    (void)chunk;
    AttemptState& st = _attempts[id];
    if (st.requested)
        report("uniqueness", "attempt " + idStr(id) + " requested twice");
    st.requested = true;
}

void
OracleSuite::onCommitSuccess(NodeId proc, const CommitId& id)
{
    (void)proc;
    AttemptState& st = _attempts[id];
    if (st.succeeded)
        report("uniqueness", "attempt " + idStr(id) + " succeeded twice");
    if (st.failed || st.aborted) {
        report("uniqueness", "attempt " + idStr(id) +
                                 " succeeded after failing/aborting");
    }
    st.succeeded = true;
    if (!_tagsSucceeded.insert(id.tag).second) {
        report("uniqueness",
               "chunk " + tagStr(id.tag) + " committed twice (duplicate "
               "commit across attempts)");
    }
}

void
OracleSuite::onCommitFailure(NodeId proc, const CommitId& id)
{
    (void)proc;
    AttemptState& st = _attempts[id];
    if (st.succeeded) {
        report("uniqueness",
               "attempt " + idStr(id) + " failed after succeeding");
    }
    st.failed = true;
}

void
OracleSuite::onCommitAborted(NodeId proc, const CommitId& id)
{
    (void)proc;
    AttemptState& st = _attempts[id];
    if (st.succeeded) {
        report("uniqueness",
               "attempt " + idStr(id) + " aborted after succeeding");
    }
    st.aborted = true;
}

// -------------------------------------------------------- serializability

std::uint64_t
OracleSuite::versionOf(Addr line) const
{
    auto it = _writers.find(line);
    return it == _writers.end() ? 0 : it->second.size();
}

bool
OracleSuite::benignSince(Addr line, std::uint64_t since, NodeId proc,
                         std::uint64_t my_serial) const
{
    auto it = _writers.find(line);
    if (it == _writers.end())
        return true;
    const auto& log = it->second;
    for (std::size_t v = since; v < log.size(); ++v) {
        // Same-processor writes are benign: a core's younger chunk reads
        // its own older chunk's forwarded data, and every protocol orders
        // same-core chunks in program order. Writes serialized *after*
        // this chunk's own serialization point are benign too: they are
        // logically later and merely completed first (BulkSC's grant /
        // fan-out race).
        if (log[v].proc != proc && log[v].serial < my_serial)
            return false;
    }
    return true;
}

std::uint64_t
OracleSuite::serialFor(const ChunkTag& tag)
{
    auto [it, fresh] = _serialOf.try_emplace(tag, 0);
    if (fresh)
        it->second = ++_serialCounter;
    return it->second;
}

std::uint64_t
OracleSuite::takeSerial(const ChunkTag& tag)
{
    const std::uint64_t serial = serialFor(tag);
    _serialOf.erase(tag);
    return serial;
}

void
OracleSuite::onCommitSerialized(NodeId proc, const CommitId& id)
{
    (void)proc;
    _serialOf.insert_or_assign(id.tag, ++_serialCounter);
}

void
OracleSuite::onChunkRead(NodeId proc, const ChunkTag& tag, Addr line)
{
    (void)proc;
    _reads[tag].try_emplace(line, versionOf(line));
}

void
OracleSuite::onLineCommitted(NodeId dir, Addr line, const CommitId& id)
{
    // Writes are published when the home directory makes them visible,
    // not when the committer retires: a read between the two instants
    // fetches the new data and must snapshot the new version.
    (void)dir;
    _writers[line].push_back(
        WriterRec{id.tag.proc, serialFor(id.tag)});
}

void
OracleSuite::onChunkCommitted(NodeId proc, const ChunkTag& tag,
                              const std::vector<Addr>& write_lines, Tick when)
{
    if (!_tagsRetired.insert(tag).second) {
        report("uniqueness",
               "core retired chunk " + tagStr(tag) + " twice");
    }

    const std::uint64_t serial = takeSerial(tag);
    auto it = _reads.find(tag);
    if (it != _reads.end()) {
        for (const auto& [line, read_ver] : it->second) {
            if (std::find(write_lines.begin(), write_lines.end(), line) !=
                write_lines.end()) {
                continue; // own write: read-your-writes is fine
            }
            const std::uint64_t cur = versionOf(line);
            if (cur != read_ver &&
                !benignSince(line, read_ver, proc, serial)) {
                std::string writers;
                for (std::uint64_t v = read_ver; v < cur; ++v) {
                    const WriterRec& w = _writers.at(line)[v];
                    writers += " proc" + std::to_string(w.proc) + "@s" +
                               std::to_string(w.serial);
                }
                report("serializability",
                       "chunk " + tagStr(tag) + " (serial " +
                           std::to_string(serial) +
                           ") committed at tick " + std::to_string(when) +
                           " having read line " + std::to_string(line) +
                           " at version " + std::to_string(read_ver) +
                           ", overwritten since (now " +
                           std::to_string(cur) + ") by" + writers);
            }
        }
        _reads.erase(it);
    }
    ++_commitsChecked;
}

// -------------------------------------------------- squash justification

void
OracleSuite::onChunkSquashed(NodeId proc, const Chunk& victim,
                             SquashReason why, const ChunkTag& committer,
                             const Signature* commit_w,
                             const std::vector<Addr>* commit_lines)
{
    (void)proc;
    _reads.erase(victim.tag());
    _serialOf.erase(victim.tag());

    if (why != SquashReason::Conflict)
        return; // cascades and protocol kills carry their own justification

    bool justified = false;
    if (commit_w != nullptr) {
        // Signature protocols: any R/W-signature intersection justifies
        // the squash (aliasing included — the signatures did intersect).
        justified = victim.rSig().intersects(*commit_w) ||
                    victim.wSig().intersects(*commit_w);
    } else if (commit_lines != nullptr) {
        justified = victim.trulyConflictsWith(*commit_lines);
    }
    if (!justified) {
        report("squash-conflict",
               "chunk " + tagStr(victim.tag()) + " squashed by commit of " +
                   tagStr(committer) +
                   " without any read/write-set intersection");
    }
}

// ----------------------------------------------------- exactly one winner

void
OracleSuite::onGroupFormed(NodeId dir, const CommitId& id,
                           const NodeSet& g_vec)
{
    (void)dir;
    (void)g_vec;
    _groupsFormed.insert(id);
}

void
OracleSuite::onGroupFailed(NodeId dir, const CommitId& id,
                           GroupFailReason why, const CommitId& winner)
{
    (void)dir;
    if (why == GroupFailReason::Collision)
        _collisions.emplace_back(id, winner);
}

// ----------------------------------------------------------------- final

void
OracleSuite::finalize(bool completed, bool protocol_quiescent)
{
    if (completed && !protocol_quiescent) {
        report("quiescence",
               "run completed but a directory/agent still holds protocol "
               "state (leaked CST entry, queue slot, or arbiter record)");
    }

    if (completed) {
        for (const auto& [id, st] : _attempts) {
            if (st.requested && !st.resolved()) {
                report("uniqueness", "attempt " + idStr(id) +
                                         " never resolved (lost commit)");
            }
        }
    }

    // "At least one of a set of colliding groups forms": walk the
    // loser->winner edges restricted to attempts that never formed; a
    // cycle means the collision set has no survivor.
    std::unordered_map<CommitId, std::vector<CommitId>> edges;
    for (const auto& [loser, winner] : _collisions) {
        if (_groupsFormed.count(loser))
            continue; // raced: the "loser" formed at another module anyway
        edges[loser].push_back(winner);
    }
    // Iterative colored DFS; gray-hit = cycle.
    std::unordered_map<CommitId, int> color; // 0 white, 1 gray, 2 black
    for (const auto& [start, unused] : edges) {
        (void)unused;
        if (color[start] != 0)
            continue;
        std::vector<std::pair<CommitId, std::size_t>> stack;
        stack.emplace_back(start, 0);
        color[start] = 1;
        while (!stack.empty()) {
            auto& [node, next] = stack.back();
            auto eit = edges.find(node);
            if (eit == edges.end() || next >= eit->second.size()) {
                color[node] = 2;
                stack.pop_back();
                continue;
            }
            const CommitId succ = eit->second[next++];
            if (_groupsFormed.count(succ) || !edges.count(succ))
                continue; // chain ends at a formed (or non-colliding) group
            int& c = color[succ];
            if (c == 1) {
                report("one-winner",
                       "collision cycle: groups " + idStr(node) + " and " +
                           idStr(succ) +
                           " each failed the other; no colliding group "
                           "formed");
                c = 2;
                continue;
            }
            if (c == 0) {
                c = 1;
                stack.emplace_back(succ, 0);
            }
        }
    }
}

} // namespace check
} // namespace sbulk
