#include "system/experiment.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "fault/transport.hh"
#include "trace/io.hh"
#include "trace/record.hh"
#include "trace/source.hh"
#include "workload/synthetic.hh"

namespace sbulk
{

namespace
{

/** Non-owning ThreadStream adapter (System wants unique_ptr streams, the
 *  replay and recorder own theirs). */
class ForwardStream : public ThreadStream
{
  public:
    explicit ForwardStream(ThreadStream* inner) : _inner(inner) {}
    MemOp next() override { return _inner->next(); }

  private:
    ThreadStream* _inner;
};

std::string
traceRunName(const std::string& path)
{
    const std::size_t slash = path.find_last_of('/');
    return "trace:" +
           (slash == std::string::npos ? path : path.substr(slash + 1));
}

/** Everything the per-core streams borrow from. Declared before the
 *  System it feeds so it outlives it. */
struct StreamPlumbing
{
    std::ifstream traceFile;
    std::stringstream scenarioBuf;
    atrace::TraceReplay replay;
    std::ofstream recordFile;
    std::unique_ptr<atrace::TraceRecorder> recorder;
    /** Synthetic streams handed to the recorder (it borrows; we own). */
    std::vector<std::unique_ptr<ThreadStream>> recordedInner;
};

/**
 * Build the run's per-core streams from whichever workload source cfg
 * names, applying trace-header hints to @p sys_cfg.
 */
std::vector<std::unique_ptr<ThreadStream>>
buildStreams(const RunConfig& cfg, SystemConfig& sys_cfg,
             StreamPlumbing& p, RunResult& r, std::uint64_t& run_seed)
{
    const bool from_scenario = !cfg.scenario.empty();
    const bool from_trace = !cfg.tracePath.empty();
    std::vector<std::unique_ptr<ThreadStream>> streams;
    if (from_trace || from_scenario) {
        std::istream* in = nullptr;
        if (from_scenario) {
            const atrace::ScenarioSpec* spec =
                atrace::findScenario(cfg.scenario);
            atrace::ScenarioParams params = cfg.scenarioParams;
            params.cores = cfg.procs;
            std::string err;
            if (!atrace::generateScenario(*spec, params, p.scenarioBuf,
                                          /*text=*/false, &err))
                SBULK_FATAL("scenario %s: %s", spec->name, err.c_str());
            in = &p.scenarioBuf;
            r.app = spec->name;
        } else {
            p.traceFile.open(cfg.tracePath, std::ios::binary);
            if (!p.traceFile)
                SBULK_FATAL("cannot open trace '%s'",
                            cfg.tracePath.c_str());
            in = &p.traceFile;
            r.app = traceRunName(cfg.tracePath);
        }
        std::string err;
        if (!p.replay.open(*in, &err))
            SBULK_FATAL("trace replay: %s", err.c_str());
        // RunConfig::validate() matched the core count and geometry.
        const atrace::TraceHeader& hdr = p.replay.header();
        // Replay hints: a recorded/generated trace knows its chunk size,
        // seed and work budget. A nonzero header chunkInstrs or seed wins
        // over RunConfig's (the tools refuse --chunk-instrs and --seed
        // that it would override); an explicit totalChunks wins over the
        // header's (tools pass 0 in trace mode to defer to the trace).
        if (hdr.chunkInstrs != 0)
            sys_cfg.core.chunkInstrs = hdr.chunkInstrs;
        std::uint64_t total = cfg.totalChunks;
        if (total == 0)
            total = hdr.totalChunks != 0 ? hdr.totalChunks : 1280;
        sys_cfg.core.chunksToRun =
            std::max<std::uint64_t>(1, total / cfg.procs);
        run_seed = hdr.seed != 0 ? hdr.seed : cfg.seedOverride;
        for (NodeId n = 0; n < cfg.procs; ++n)
            streams.push_back(
                std::make_unique<ForwardStream>(p.replay.streamFor(n)));
        r.traced = true;
        return streams;
    }

    SyntheticParams params = streamParams(*cfg.app, cfg.procs);
    if (cfg.seedOverride != 0)
        params.seed = cfg.seedOverride;
    run_seed = params.seed;
    r.app = cfg.app->name;
    if (!cfg.recordPath.empty()) {
        p.recordFile.open(cfg.recordPath, std::ios::binary);
        if (!p.recordFile)
            SBULK_FATAL("cannot open '%s' for recording",
                        cfg.recordPath.c_str());
        atrace::TraceHeader hdr;
        hdr.numCores = cfg.procs;
        hdr.numTenants = 1;
        hdr.lineBytes = sys_cfg.mem.l2.lineBytes;
        hdr.pageBytes = sys_cfg.mem.pageBytes;
        hdr.chunkInstrs = sys_cfg.core.chunkInstrs;
        hdr.seed = params.seed;
        hdr.totalChunks = cfg.totalChunks;
        p.recorder = std::make_unique<atrace::TraceRecorder>(
            p.recordFile, hdr, /*text=*/false);
    }
    for (NodeId n = 0; n < cfg.procs; ++n) {
        streams.push_back(std::make_unique<SyntheticStream>(
            params, n, cfg.procs, sys_cfg.mem.l2.lineBytes,
            sys_cfg.mem.pageBytes));
        if (p.recorder) {
            ThreadStream* inner = streams.back().release();
            streams.back() = std::make_unique<ForwardStream>(
                p.recorder->wrap(inner, std::uint16_t(n)));
            // The recorder borrows the inner stream; re-own it so it
            // lives as long as the run.
            p.recordedInner.push_back(
                std::unique_ptr<ThreadStream>(inner));
        }
    }
    return streams;
}

} // namespace

std::optional<std::string>
readTraceHeader(const std::string& path, atrace::TraceHeader& hdr)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open trace '" + path + "'";
    atrace::TraceReader reader;
    std::string err;
    if (!reader.open(in, &err))
        return path + ": " + err;
    hdr = reader.header();
    return std::nullopt;
}

std::optional<std::string>
RunConfig::validate() const
{
    using detail::formatMsg;
    if (int(app != nullptr) + int(!scenario.empty()) +
            int(!tracePath.empty()) != 1)
        return "a run needs exactly one workload source (app, trace, or "
               "scenario)";
    if (procs < 1 || procs > 4096)
        return formatMsg("procs %u is not in 1..4096", procs);
    if (shards < 1 || shards > procs)
        return formatMsg("shards %u is not in 1..procs (%u)", shards, procs);
    if (chunkInstrs < 1)
        return "chunk-instrs must be at least 1";
    if (!sig.valid())
        return formatMsg("a %u-bit signature does not split into %u banks "
                         "of at least 2 bits",
                         sig.totalBits, sig.numBanks);
    if (!recordPath.empty() && !app)
        return "recording requires a synthetic app workload";

    if (!shardMap.empty() && shardMap != "contiguous")
        return formatMsg("unknown shard map policy '%s' (want contiguous)",
                         shardMap.c_str());

    if (!scenario.empty()) {
        if (!atrace::findScenario(scenario))
            return formatMsg("unknown scenario '%s' (see --list-scenarios)",
                             scenario.c_str());
        atrace::ScenarioParams params = scenarioParams;
        params.cores = procs;
        std::string err;
        if (!atrace::validateScenarioParams(params, &err))
            return err;
    }
    if (!tracePath.empty()) {
        atrace::TraceHeader hdr;
        if (auto err = readTraceHeader(tracePath, hdr))
            return err;
        if (hdr.numCores != procs)
            return formatMsg("trace drives %u cores but the run has %u "
                             "procs (pass --procs %u)",
                             hdr.numCores, procs, hdr.numCores);
        const MemConfig machine;
        if (hdr.lineBytes != machine.l2.lineBytes ||
            hdr.pageBytes != machine.pageBytes)
            return formatMsg("trace address geometry (line %u page %u) "
                             "does not match the machine (line %u page %u)",
                             hdr.lineBytes, hdr.pageBytes,
                             machine.l2.lineBytes, machine.pageBytes);
    }
    return std::nullopt;
}

RunResult
runExperiment(const RunConfig& cfg, StatSet* stats, TracePrinter* printer)
{
    if (const auto err = cfg.validate())
        SBULK_FATAL("%s", err->c_str());

    SystemConfig sys_cfg;
    sys_cfg.numProcs = cfg.procs;
    sys_cfg.protocol = cfg.protocol;
    sys_cfg.proto = cfg.proto;
    sys_cfg.shards = cfg.shards;
    sys_cfg.interleavedPages = cfg.interleavedPages;
    sys_cfg.observer = printer;
    const bool faulted = cfg.faults.enabled();
    if (faulted)
        fault::FaultTransport::armRecovery(cfg.faults, sys_cfg.proto);
    sys_cfg.core.chunkInstrs = cfg.chunkInstrs;
    sys_cfg.core.sigCfg = cfg.sig;
    sys_cfg.core.chunksToRun =
        std::max<std::uint64_t>(1, cfg.totalChunks / cfg.procs);

    RunResult r;
    std::uint64_t run_seed = 0;

    StreamPlumbing plumbing;
    auto streams = buildStreams(cfg, sys_cfg, plumbing, r, run_seed);

    System sys(sys_cfg, std::move(streams));
    if (printer)
        printer->attach(sys.network());

    std::unique_ptr<fault::FaultTransport> transport;
    if (faulted)
        transport = std::make_unique<fault::FaultTransport>(
            sys.network(), cfg.faults, /*stream_salt=*/run_seed);

    const auto wall0 = std::chrono::steady_clock::now();
    const Tick end = sys.run(cfg.tickLimit);
    r.wallSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall0)
                    .count();
    if (stats)
        sys.recordStats(*stats);
    r.shardStats = sys.shardStats();
    r.shardWallSec = sys.shardWallSeconds();
    r.shardLookaheadMin = sys.shardLookaheadMin();

    if (plumbing.recorder) {
        std::string err;
        if (!plumbing.recorder->finalize(&err))
            SBULK_FATAL("trace record: %s", err.c_str());
    }

    r.procs = cfg.procs;
    r.protocol = cfg.protocol;
    r.seed = run_seed;
    r.makespan = end;
    r.breakdown = sys.breakdown();

    const CommitMetrics& m = sys.metrics();
    r.commits = m.commits.value();
    r.commitLatencyMean = m.commitLatency.mean();
    r.commitLatency = m.commitLatency;
    r.dirsPerCommitMean = m.dirsPerCommit.mean();
    r.writeDirsPerCommitMean = m.writeDirsPerCommit.mean();
    r.dirsPerCommit = m.dirsPerCommit;
    r.bottleneckRatio = m.bottleneckRatio.mean();
    r.chunkQueueLength = m.chunkQueueLength.mean();
    r.commitFailures = m.commitFailures.value();
    r.squashesTrueConflict = m.squashesTrueConflict.value();
    r.squashesAliasing = m.squashesAliasing.value();
    r.commitRecalls = m.commitRecalls.value();
    r.traffic = sys.traffic();

    std::map<std::uint16_t, RunResult::TenantStats> tenants;
    for (NodeId n = 0; n < cfg.procs; ++n) {
        r.chunksSquashed += sys.core(n).stats().chunksSquashed.value();
        const auto& h = sys.hierarchy(n).stats();
        r.loads += h.loads.value();
        r.l1Hits += h.l1Hits.value();
        r.l2Misses += h.misses.value();
        for (const auto& [id, accum] : sys.core(n).tenantStats()) {
            RunResult::TenantStats& t = tenants[id];
            t.tenant = id;
            t.commits += accum.commits;
            t.squashes += accum.squashes;
            t.commitLatency.merge(accum.commitLatency);
        }
    }
    for (auto& [id, t] : tenants)
        r.tenants.push_back(std::move(t));

    if (faulted) {
        r.faultsInjected = transport->injected().size();
        r.retransmissions = transport->stats().retransmissions.value();
        r.dupsDropped = transport->stats().dupsDropped.value();
        r.watchdogFires = m.watchdogFires.value();
        r.retryEscalations = m.retryEscalations.value();
        r.recoveryLatencyMean = transport->stats().recoveryLatency.mean();
    }
    return r;
}

} // namespace sbulk
