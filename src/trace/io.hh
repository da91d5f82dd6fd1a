/**
 * @file
 * Streaming access-trace I/O over std::iostream: a record-at-a-time writer
 * and reader (bounded memory regardless of trace length), strict
 * validation with byte-offset / line-precise errors, whole-file scanning,
 * and binary<->text conversion.
 */

#ifndef SBULK_ATRACE_IO_HH
#define SBULK_ATRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace sbulk::atrace
{

/**
 * Appends records to a binary or text trace. The header goes out on
 * construction with recordCount unset; finalize() patches the true count
 * into a seekable binary stream (text traces and pipes simply stay at
 * "unknown", which validation treats as a streamed trace).
 */
class TraceWriter
{
  public:
    TraceWriter(std::ostream& out, const TraceHeader& hdr,
                bool text = false);

    /** Validate @p rec against the header and write it. */
    bool append(const TraceRecord& rec, std::string* err);

    /** Flush, and patch recordCount when the stream allows seeking. */
    bool finalize(std::string* err);

    std::uint64_t written() const { return _written; }
    const TraceHeader& header() const { return _hdr; }

  private:
    std::ostream& _out;
    TraceHeader _hdr;
    bool _text;
    std::uint64_t _written = 0;
};

/**
 * Reads one trace record at a time, auto-detecting the binary and text
 * forms. Every structural defect — truncated record, bad field, record
 * count mismatch, junk line — fails with the exact record index, byte
 * offset (binary) or line number (text).
 */
class TraceReader
{
  public:
    /** Parse the header; false (with @p err) on a malformed stream. */
    bool open(std::istream& in, std::string* err);

    const TraceHeader& header() const { return _hdr; }
    bool isText() const { return _text; }

    /**
     * Read the next record. Returns true with @p rec filled; false at a
     * clean end-of-trace with @p err untouched; false with @p err set on
     * a malformed record.
     */
    bool next(TraceRecord& rec, std::string* err);

    /** True once next() returned false without an error. */
    bool atEnd() const { return _eof; }

    /** Records consumed so far. */
    std::uint64_t recordIndex() const { return _index; }

    /** Seek back to the first record (requires a seekable stream). */
    bool rewind(std::string* err);

  private:
    std::istream* _in = nullptr;
    TraceHeader _hdr;
    bool _text = false;
    bool _eof = false;
    std::uint64_t _index = 0;
    /** Line number of the last-read text line (1-based). */
    std::uint64_t _line = 0;
    /** Stream position of the first record, for rewind(). */
    std::streampos _firstRecord;
};

/** Whole-trace facts gathered by a validating scan. */
struct TraceSummary
{
    TraceHeader header;
    bool text = false;
    std::uint64_t records = 0;
    std::uint64_t writes = 0;
    /** Total instructions implied: sum of (gap + 1). */
    std::uint64_t instrs = 0;
    std::vector<std::uint64_t> opsPerCore;
    /** End-of-chunk markers per core (requests, for scenario traces). */
    std::vector<std::uint64_t> chunksPerCore;
    std::vector<std::uint64_t> opsPerTenant;
};

/**
 * Validate @p in end to end and fill @p sum. False (with a precise error)
 * on the first defect, including a final recordCount mismatch.
 */
bool scanTrace(std::istream& in, TraceSummary& sum, std::string* err);

/** Re-encode @p in (either form) as binary or text onto @p out. */
bool convertTrace(std::istream& in, std::ostream& out, bool to_text,
                  std::string* err);

} // namespace sbulk::atrace

#endif // SBULK_ATRACE_IO_HH
