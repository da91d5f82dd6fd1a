/**
 * @file
 * Trace recorder: transparent ThreadStream wrappers that tee every
 * operation a run consumes into a trace file, interleaved in execution
 * order. Because a single run is deterministic, recording does not perturb
 * it — and replaying the capture reproduces the identical op sequence per
 * core, hence identical sweep statistics.
 */

#ifndef SBULK_ATRACE_RECORD_HH
#define SBULK_ATRACE_RECORD_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "workload/stream.hh"

namespace sbulk::atrace
{

/** Tees the ops of a whole run (all cores) into one TraceWriter. */
class TraceRecorder
{
  public:
    /** @p hdr supplies the trace metadata (cores, sizes, replay hints). */
    TraceRecorder(std::ostream& out, const TraceHeader& hdr,
                  bool text = false);
    ~TraceRecorder(); // out of line: Tee is incomplete here

    /**
     * Wrap @p inner (core @p core's live stream) so every op it produces
     * is also appended to the trace. The wrapper is owned by the recorder;
     * @p inner must outlive it.
     */
    ThreadStream* wrap(ThreadStream* inner, std::uint16_t core);

    /** Patch the record count; false (with @p err) on a write failure. */
    bool finalize(std::string* err) { return _writer.finalize(err); }

    std::uint64_t recorded() const { return _writer.written(); }

  private:
    class Tee;

    void append(const MemOp& op, std::uint16_t core);

    TraceWriter _writer;
    std::vector<std::unique_ptr<Tee>> _tees;
};

} // namespace sbulk::atrace

#endif // SBULK_ATRACE_RECORD_HH
