/**
 * @file
 * Protocol invariant oracles for the model checker and the test suite
 * (see CHECKING.md).
 *
 * OracleSuite is a ProtocolObserver that watches every protocol event of a
 * run and accumulates Violations instead of asserting, so a seed sweep can
 * keep going after a failure and report all of them. The invariants:
 *
 *  - **Commit serializability** (paper Section 3.1): a committed chunk
 *    must not have read a line that another processor's commit overwrote
 *    between the read and this chunk's commit. Every line carries a
 *    version that bumps when a directory makes a committed write to it
 *    visible; a chunk records the version of each line it reads and, at
 *    retirement, every read line outside its own write set must be
 *    unchanged, or changed only by its own processor or by commits the
 *    protocol serialized after it.
 *  - **Exactly one winner** (Section 3.2.3, "at least one of a set of
 *    colliding groups forms"): collision losses form loser->winner edges;
 *    a cycle among attempts that never formed means every group in the
 *    collision died and the guarantee is broken.
 *  - **No lost / duplicate commits** (Section 3.1): each commit attempt
 *    resolves at most once as a success and never both succeeds and
 *    fails; a chunk tag commits at most once; on a completed run no
 *    attempt is left unresolved.
 *  - **Squash implies conflict** (Section 3.1): every Conflict squash
 *    must be justified by the victim actually intersecting the
 *    committer's write set (signature-level for signature protocols,
 *    exact lines for TCC).
 *  - **Directory quiescence** (Figure 6): when a run completes, every
 *    CST / occupancy queue / arbiter table must be empty (checked by the
 *    runner via System::protocolQuiescent() and reported through
 *    finalize()).
 */

#ifndef SBULK_CHECK_ORACLES_HH
#define SBULK_CHECK_ORACLES_HH

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "proto/commit_protocol.hh"

namespace sbulk
{
namespace check
{

/** One invariant violation. */
struct Violation
{
    /** Which oracle fired ("serializability", "one-winner", ...). */
    std::string oracle;
    std::string detail;
    Tick when = 0;
};

/** All invariant oracles behind one ProtocolObserver. */
class OracleSuite : public ProtocolObserver
{
  public:
    /** Attach the run's clock (for violation timestamps). May be null. */
    void setClock(const EventQueue* eq) { _eq = eq; }

    /// @name ProtocolObserver
    /// @{
    void onCommitRequested(NodeId proc, const CommitId& id,
                           const Chunk& chunk) override;
    void onCommitSerialized(NodeId proc, const CommitId& id) override;
    void onCommitSuccess(NodeId proc, const CommitId& id) override;
    void onCommitFailure(NodeId proc, const CommitId& id) override;
    void onCommitAborted(NodeId proc, const CommitId& id) override;
    void onChunkRead(NodeId proc, const ChunkTag& tag, Addr line) override;
    void onLineCommitted(NodeId dir, Addr line, const CommitId& id) override;
    void onChunkCommitted(NodeId proc, const ChunkTag& tag,
                          const std::vector<Addr>& write_lines,
                          Tick now) override;
    void onChunkSquashed(NodeId proc, const Chunk& victim, SquashReason why,
                         const ChunkTag& committer, const Signature* commit_w,
                         const std::vector<Addr>* commit_lines) override;
    void onGroupFormed(NodeId dir, const CommitId& id,
                       const NodeSet& g_vec) override;
    void onGroupFailed(NodeId dir, const CommitId& id, GroupFailReason why,
                       const CommitId& winner) override;
    /// @}

    /**
     * End-of-run checks.
     * @param completed Every core ran its chunk budget to completion.
     * @param protocol_quiescent System::protocolQuiescent() at the end.
     */
    void finalize(bool completed, bool protocol_quiescent);

    const std::vector<Violation>& violations() const { return _violations; }

    /** Commits validated by the serializability oracle — sanity hook. */
    std::uint64_t commitsChecked() const { return _commitsChecked; }

  private:
    /** Per commit attempt: which outcomes have been observed. */
    struct AttemptState
    {
        bool requested = false;
        bool succeeded = false;
        bool failed = false;
        bool aborted = false;

        bool resolved() const { return succeeded || failed || aborted; }
    };

    /** One committed write to a line. */
    struct WriterRec
    {
        NodeId proc = 0;
        /** Position in the protocol's serialization order (see
         *  onCommitSerialized); completion order when never emitted. */
        std::uint64_t serial = 0;
    };

    void report(const char* oracle, std::string detail);
    Tick now() const;

    std::uint64_t versionOf(Addr line) const;
    bool benignSince(Addr line, std::uint64_t since, NodeId proc,
                     std::uint64_t my_serial) const;
    /** The chunk's serialization position; assigned on first use (grant
     *  hook, first line commit, or retirement — whichever comes first). */
    std::uint64_t serialFor(const ChunkTag& tag);
    std::uint64_t takeSerial(const ChunkTag& tag);

    const EventQueue* _eq = nullptr;
    std::vector<Violation> _violations;

    /// @name Serializability state (version vectors)
    /// @{
    /** Per line: each committed write, in completion order (the line's
     *  version is the log length). */
    std::unordered_map<Addr, std::vector<WriterRec>> _writers;
    /** Per live chunk: line -> version observed at first read. */
    std::unordered_map<ChunkTag, std::unordered_map<Addr, std::uint64_t>>
        _reads;
    /** Serialization points claimed early via onCommitSerialized. */
    std::unordered_map<ChunkTag, std::uint64_t> _serialOf;
    std::uint64_t _serialCounter = 0;
    std::uint64_t _commitsChecked = 0;
    /// @}

    /// @name Commit uniqueness state
    /// @{
    std::unordered_map<CommitId, AttemptState> _attempts;
    /** Tags that consumed a protocol-level commit success. */
    std::unordered_set<ChunkTag> _tagsSucceeded;
    /** Tags the core has retired (exactly-once check). */
    std::unordered_set<ChunkTag> _tagsRetired;
    /// @}

    /// @name Exactly-one-winner state (ScalableBulk groups)
    /// @{
    /** Collision edges: loser -> admitted winner it lost to. */
    std::vector<std::pair<CommitId, CommitId>> _collisions;
    std::unordered_set<CommitId> _groupsFormed;
    /// @}
};

} // namespace check
} // namespace sbulk

#endif // SBULK_CHECK_ORACLES_HH
