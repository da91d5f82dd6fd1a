/**
 * @file
 * Generator-backed serving scenarios, emitted as access traces.
 *
 * Where the synthetic SPLASH-2/PARSEC models reproduce the paper's
 * scientific workloads, these scenarios are shaped like production
 * serving: many tenants multiplexed over the cores, Zipf-skewed
 * popularity with hot keys, request/transaction boundaries mapped onto
 * chunks (each record marked EOC ends one request), bursty and
 * phase-changing arrivals, and producer/consumer staging pipelines.
 *
 * Each generator is a pure function of its ScenarioParams — the same
 * (scenario, params) pair always yields a byte-identical trace — so
 * golden traces in CI stay stable and sweeps are reproducible.
 */

#ifndef SBULK_ATRACE_SCENARIOS_HH
#define SBULK_ATRACE_SCENARIOS_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/format.hh"

namespace sbulk::atrace
{

/** Knobs common to every scenario generator. */
struct ScenarioParams
{
    /** Cores the trace will drive. */
    std::uint32_t cores = 8;
    /** Logical tenants multiplexed over them (pipeline scenarios derive
     *  their own tenant count from the core layout). */
    std::uint32_t tenants = 4;
    /** Requests/transactions to generate, across all cores. Every core
     *  emits at least one (replay requires records for each core). */
    std::uint64_t requests = 512;
    std::uint64_t seed = 1;
    /** Address geometry; defaults match mem/config.hh. */
    std::uint32_t lineBytes = 32;
    std::uint32_t pageBytes = 4096;
};

/** One named scenario. */
struct ScenarioSpec
{
    const char* name;
    const char* family; ///< "kv", "bursty", or "pipeline"
    const char* summary;
    /** Fill @p hdr and append the records (already merged in virtual-time
     *  order). */
    void (*generate)(const ScenarioParams& p, TraceHeader& hdr,
                     std::vector<TraceRecord>& out);
};

/** The scenario library, stable order. */
const std::vector<ScenarioSpec>& allScenarios();

/** Find by name; null if unknown. */
const ScenarioSpec* findScenario(const std::string& name);

/** Validate @p p; false with a message on out-of-range knobs. */
bool validateScenarioParams(const ScenarioParams& p, std::string* err);

/**
 * Generate @p spec with @p p and write the trace (binary or text) onto
 * @p out. False (with @p err) on bad params or a write failure.
 */
bool generateScenario(const ScenarioSpec& spec, const ScenarioParams& p,
                      std::ostream& out, bool text, std::string* err);

} // namespace sbulk::atrace

#endif // SBULK_ATRACE_SCENARIOS_HH
