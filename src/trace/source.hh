/**
 * @file
 * Replay frontend: turns an access trace into per-core ThreadStreams so a
 * recorded or generated workload drives Core::executeOp interchangeably
 * with the synthetic application models.
 *
 * A single streaming reader demultiplexes records into per-core queues
 * (memory bounded by core skew, not trace length), and each core's stream
 * pulls from its queue. ThreadStream is an *endless* interface while a
 * trace is finite: on exhaustion the replay rewinds and wraps around, so
 * the chunk budget — not the trace length — ends the run, exactly as with
 * synthetic streams. Malformed records abort the run with the reader's
 * byte-offset / line-precise message.
 */

#ifndef SBULK_ATRACE_SOURCE_HH
#define SBULK_ATRACE_SOURCE_HH

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "workload/stream.hh"

namespace sbulk::atrace
{

/** Demultiplexes one trace into per-core replayable op streams. */
class TraceReplay
{
  public:
    TraceReplay();
    ~TraceReplay(); // out of line: CoreStream is incomplete here

    /**
     * Parse the header and prepare per-core streams. False (with @p err)
     * on a malformed header. The stream must outlive the replay.
     */
    bool open(std::istream& in, std::string* err);

    const TraceHeader& header() const { return _reader.header(); }

    /** Cores the trace drives (valid after open()). */
    std::uint32_t numCores() const { return _reader.header().numCores; }

    /**
     * The ThreadStream for @p core (owned by this replay; valid for its
     * lifetime). @p core must be < numCores().
     */
    ThreadStream* streamFor(NodeId core);

    /** Times the trace wrapped around (diagnostic; grows during replay). */
    std::uint64_t wraps() const { return _wraps; }

  private:
    class CoreStream;

    /** Pop the next op for @p core, reading/rewinding as needed. */
    MemOp pull(std::uint16_t core);

    /** Read records until @p core has one queued; wraps at end-of-trace. */
    void fill(std::uint16_t core);

    /**
     * Serializes the shared demux (reader + queues) when per-core streams
     * are pulled from different shard threads. Each core's op sequence is
     * fixed by the trace content, so which thread happens to trigger a
     * fill never changes what any core observes.
     */
    std::mutex _mu;
    TraceReader _reader;
    std::vector<std::deque<MemOp>> _queues;
    std::vector<std::unique_ptr<CoreStream>> _streams;
    /** Cores that produced at least one record (wrap-starvation guard). */
    std::vector<char> _coreSeen;
    std::uint64_t _wraps = 0;
};

} // namespace sbulk::atrace

#endif // SBULK_ATRACE_SOURCE_HH
