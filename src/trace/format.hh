/**
 * @file
 * The sbulk access-trace format (see WORKLOADS.md): a compact, versioned
 * binary record stream — one record per memory access, carrying the tenant,
 * core, operation, address, access size, think cycles, and an end-of-chunk
 * marker — plus an equivalent line-oriented text form.
 *
 * Everything is little-endian and serialized byte-by-byte (no struct
 * punning), so traces are portable across hosts and compilers. The
 * namespace is `atrace` ("access trace"), apart from the protocol-event
 * trace that --debug-trace prints (proto/trace_printer.hh).
 */

#ifndef SBULK_ATRACE_FORMAT_HH
#define SBULK_ATRACE_FORMAT_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace sbulk::atrace
{

/** File magic: the ASCII bytes "SBTR". */
inline constexpr std::uint8_t kMagic[4] = {'S', 'B', 'T', 'R'};
/** Current format version. */
inline constexpr std::uint16_t kVersion = 1;
/** Serialized header size, bytes (room for growth is versioned). */
inline constexpr std::uint32_t kHeaderBytes = 56;
/** Serialized record size, bytes. */
inline constexpr std::uint32_t kRecordBytes = 20;
/** First line of the text form. */
inline constexpr const char* kTextMagic = "#sbtrace";

/**
 * Trace-wide metadata. The replay hints (seed, chunkInstrs, totalChunks)
 * let a recorded run replay with no extra flags: zero means "unset, use
 * the consumer's default".
 */
struct TraceHeader
{
    /** Cores the trace drives; replay requires a machine this size. */
    std::uint32_t numCores = 0;
    /** Tenant-id space; records must satisfy tenant < numTenants. */
    std::uint32_t numTenants = 1;
    /** Cache-line size the addresses were generated for. */
    std::uint32_t lineBytes = 32;
    /** Page size the addresses were generated for. */
    std::uint32_t pageBytes = 4096;
    /** Replay hint: chunk size in instructions (0 = consumer default). */
    std::uint32_t chunkInstrs = 0;
    /** Workload seed echoed into replay results (0 = none). */
    std::uint64_t seed = 0;
    /** Replay hint: total chunk budget across cores (0 = derive). */
    std::uint64_t totalChunks = 0;
    /** Records in the file; 0 = unknown (writer was not finalized). */
    std::uint64_t recordCount = 0;

    bool operator==(const TraceHeader&) const = default;
};

/** One memory access of the trace. */
struct TraceRecord
{
    /** Logical client the access serves (see WORKLOADS.md). */
    std::uint16_t tenant = 0;
    /** Core that executes the access. */
    std::uint16_t core = 0;
    bool isWrite = false;
    /** The access completes the current chunk (transaction boundary). */
    bool endChunk = false;
    /** Access width in bytes — advisory metadata in v1 (the simulator is
     *  line-granular); must be nonzero. */
    std::uint16_t size = 4;
    /** Think cycles: non-memory instructions before this access. */
    std::uint32_t gap = 0;
    /** Byte address. */
    Addr addr = 0;

    bool operator==(const TraceRecord&) const = default;
};

/// @name Binary serialization (buffers of kHeaderBytes / kRecordBytes)
/// @{
void encodeHeader(const TraceHeader& hdr, std::uint8_t* out);
/** Decode + validate a header. False with a precise message on failure. */
bool decodeHeader(const std::uint8_t* in, TraceHeader& hdr,
                  std::string* err);
void encodeRecord(const TraceRecord& rec, std::uint8_t* out);
void decodeRecord(const std::uint8_t* in, TraceRecord& rec);
/// @}

/** Field validation shared by both forms and the writer: false with a
 *  message naming the offending field and value. */
bool validateHeaderFields(const TraceHeader& hdr, std::string* err);
bool validateRecordFields(const TraceRecord& rec, const TraceHeader& hdr,
                          std::string* err);

/// @name Text form (one record per line; see WORKLOADS.md for the grammar)
/// @{
/** Render the header as the two leading comment lines. */
std::string headerToText(const TraceHeader& hdr);
/** Render one record as a line (no trailing newline). */
std::string recordToText(const TraceRecord& rec);
/** Parse a record line. False with a field-precise message. */
bool recordFromText(const std::string& line, TraceRecord& rec,
                    std::string* err);
/** Parse the `#sbtrace ...` header line. */
bool headerFromText(const std::string& line, TraceHeader& hdr,
                    std::string* err);
/// @}

} // namespace sbulk::atrace

#endif // SBULK_ATRACE_FORMAT_HH
