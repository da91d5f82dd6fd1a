/**
 * @file
 * The --debug-trace printer: a ProtocolObserver that renders protocol
 * events as one stamped text line each, in the spirit of gem5's DPRINTF.
 *
 * Categories are chosen when the printer is built. Runs without
 * --debug-trace attach no printer and keep a null observer, so they pay
 * nothing. Every protocol reports through the same observer hooks, so the
 * output covers all four.
 * Each line is "tick: category: text", written in one call under a lock,
 * so lines from shard threads (or concurrent checker runs) never split.
 */

#ifndef SBULK_PROTO_TRACE_PRINTER_HH
#define SBULK_PROTO_TRACE_PRINTER_HH

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "proto/commit_protocol.hh"

namespace sbulk
{

class TracePrinter : public ProtocolObserver
{
  public:
    /** Trace categories, and the observer events each one prints. */
    enum class Cat : std::uint8_t
    {
        Commit, ///< commit requests, successes, failures, watchdog kicks
        Group,  ///< ScalableBulk group formation and group failures
        Inv,    ///< aborted commits and lines made visible at a directory
        Squash, ///< chunk squashes
        Read,   ///< lines read by executing chunks
        Count,
    };

    /** A set of categories, one bit per Cat. */
    using Mask = std::uint32_t;

    static const char* catName(Cat cat);
    /** Bit of @p cat in a Mask. */
    static constexpr Mask bit(Cat cat) { return Mask(1) << unsigned(cat); }
    /** The categories a name selects: one ("commit", "group", ...), every
     *  one ("all"), or none (an unknown name). */
    static Mask maskOf(const std::string& name);

    /** Print the categories in @p cats to @p out. */
    explicit TracePrinter(Mask cats, std::ostream& out = std::cerr)
        : _cats(cats), _out(out)
    {}

    bool enabled(Cat cat) const { return (_cats & bit(cat)) != 0; }

    /**
     * Stamp lines with @p net 's clock: Network::eventQueue() is the
     * calling shard's queue, so each line carries its own tile's tick.
     * Unattached, lines read tick 0.
     */
    void attach(Network& net) { _net = &net; }

    /// @name ProtocolObserver
    /// @{
    void onCommitRequested(NodeId proc, const CommitId& id,
                           const Chunk& chunk) override;
    void onCommitSuccess(NodeId proc, const CommitId& id) override;
    void onCommitFailure(NodeId proc, const CommitId& id) override;
    void onWatchdogFired(NodeId proc, const CommitId& id) override;
    void onCommitAborted(NodeId proc, const CommitId& id) override;
    void onChunkRead(NodeId proc, const ChunkTag& tag, Addr line) override;
    void onLineCommitted(NodeId dir, Addr line, const CommitId& id) override;
    void onChunkSquashed(NodeId proc, const Chunk& victim, SquashReason why,
                         const ChunkTag& committer, const Signature* commit_w,
                         const std::vector<Addr>* commit_lines) override;
    void onGroupFormed(NodeId dir, const CommitId& id,
                       const NodeSet& g_vec) override;
    void onGroupFailed(NodeId dir, const CommitId& id, GroupFailReason why,
                       const CommitId& winner) override;
    /// @}

  private:
    /** Write one line (printf-style body) if @p cat is enabled. */
    void print(Cat cat, const char* fmt, ...)
        __attribute__((format(printf, 3, 4)));

    Mask _cats;
    std::ostream& _out;
    Network* _net = nullptr;
};

} // namespace sbulk

#endif // SBULK_PROTO_TRACE_PRINTER_HH
