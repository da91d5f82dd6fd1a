#include "proto/trace_printer.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <mutex>

#include "chunk/chunk.hh"

namespace sbulk
{

namespace
{

/** One lock for every printer: concurrent checker runs may share a
 *  stream, and a line is never split. */
std::mutex gLineLock;

} // namespace

const char*
TracePrinter::catName(Cat cat)
{
    switch (cat) {
      case Cat::Commit: return "commit";
      case Cat::Group: return "group";
      case Cat::Inv: return "inv";
      case Cat::Squash: return "squash";
      case Cat::Read: return "read";
      case Cat::Count: break;
    }
    return "?";
}

TracePrinter::Mask
TracePrinter::maskOf(const std::string& name)
{
    if (name == "all")
        return bit(Cat::Count) - 1;
    for (std::size_t c = 0; c < std::size_t(Cat::Count); ++c)
        if (name == catName(Cat(c)))
            return bit(Cat(c));
    return 0;
}

void
TracePrinter::print(Cat cat, const char* fmt, ...)
{
    if (!enabled(cat))
        return;
    char body[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(body, sizeof body, fmt, ap);
    va_end(ap);
    const Tick now = _net ? _net->eventQueue().now() : 0;
    char line[600];
    const int len = std::snprintf(line, sizeof line, "%10llu: %-6s: %s\n",
                                  (unsigned long long)now, catName(cat),
                                  body);
    const std::lock_guard<std::mutex> lock(gLineLock);
    _out.write(line, std::min<std::streamsize>(len, sizeof line - 1));
}

void
TracePrinter::onCommitRequested(NodeId proc, const CommitId& id,
                                const Chunk& chunk)
{
    print(Cat::Commit,
          "proc %u requests commit of (%u,%llu) attempt %u over %u dirs",
          proc, id.tag.proc, (unsigned long long)id.tag.seq, id.attempt,
          chunk.gVec().count());
}

void
TracePrinter::onCommitSuccess(NodeId proc, const CommitId& id)
{
    print(Cat::Commit, "proc %u commit (%u,%llu) attempt %u SUCCESS", proc,
          id.tag.proc, (unsigned long long)id.tag.seq, id.attempt);
}

void
TracePrinter::onCommitFailure(NodeId proc, const CommitId& id)
{
    print(Cat::Commit,
          "proc %u commit (%u,%llu) attempt %u FAILED, backing off", proc,
          id.tag.proc, (unsigned long long)id.tag.seq, id.attempt);
}

void
TracePrinter::onWatchdogFired(NodeId proc, const CommitId& id)
{
    print(Cat::Commit,
          "proc %u watchdog: commit (%u,%llu) attempt %u has no outcome, "
          "kicking transport",
          proc, id.tag.proc, (unsigned long long)id.tag.seq, id.attempt);
}

void
TracePrinter::onCommitAborted(NodeId proc, const CommitId& id)
{
    print(Cat::Inv,
          "proc %u commit (%u,%llu) attempt %u aborted: its chunk was "
          "squashed",
          proc, id.tag.proc, (unsigned long long)id.tag.seq, id.attempt);
}

void
TracePrinter::onChunkRead(NodeId proc, const ChunkTag& tag, Addr line)
{
    print(Cat::Read, "core %u chunk (%u,%llu) reads line %#llx", proc,
          tag.proc, (unsigned long long)tag.seq, (unsigned long long)line);
}

void
TracePrinter::onLineCommitted(NodeId dir, Addr line, const CommitId& id)
{
    print(Cat::Inv, "dir %u makes line %#llx of (%u,%llu) visible", dir,
          (unsigned long long)line, id.tag.proc,
          (unsigned long long)id.tag.seq);
}

void
TracePrinter::onChunkSquashed(NodeId proc, const Chunk& victim,
                              SquashReason why, const ChunkTag& committer,
                              const Signature* commit_w,
                              const std::vector<Addr>* commit_lines)
{
    (void)commit_w;
    const ChunkTag& tag = victim.tag();
    if (why != SquashReason::Conflict) {
        print(Cat::Squash, "core %u squashes (%u,%llu) (%s)", proc,
              tag.proc, (unsigned long long)tag.seq,
              why == SquashReason::Cascade ? "cascade" : "protocol kill");
        return;
    }
    const bool true_conflict =
        commit_lines && victim.trulyConflictsWith(*commit_lines);
    print(Cat::Squash,
          "core %u squashes (%u,%llu) (%s conflict with (%u,%llu))", proc,
          tag.proc, (unsigned long long)tag.seq,
          true_conflict ? "true" : "aliased", committer.proc,
          (unsigned long long)committer.seq);
}

void
TracePrinter::onGroupFormed(NodeId dir, const CommitId& id,
                            const NodeSet& g_vec)
{
    print(Cat::Group, "dir %u formed group for (%u,%llu): %u members", dir,
          id.tag.proc, (unsigned long long)id.tag.seq, g_vec.count());
}

void
TracePrinter::onGroupFailed(NodeId dir, const CommitId& id,
                            GroupFailReason why, const CommitId& winner)
{
    if (why == GroupFailReason::Collision) {
        print(Cat::Group,
              "dir %u is the Collision module: (%u,%llu) loses to "
              "(%u,%llu)",
              dir, id.tag.proc, (unsigned long long)id.tag.seq,
              winner.tag.proc, (unsigned long long)winner.tag.seq);
        return;
    }
    print(Cat::Group, "dir %u fails group of (%u,%llu) (%s)", dir,
          id.tag.proc, (unsigned long long)id.tag.seq,
          why == GroupFailReason::Recall ? "recall" : "reservation");
}

} // namespace sbulk
