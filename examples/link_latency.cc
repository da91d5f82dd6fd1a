/**
 * @file
 * Interconnect link-latency sensitivity (Table 2 fixes 7 cycles).
 *
 * Group formation serializes one link traversal per member, so
 * ScalableBulk's commit latency scales with link latency times group
 * size. This sweeps the torus link latency on Barnes at 64 processors and
 * compares against an ideal (contention-free, fixed-latency) fabric. The
 * fabric is a SystemConfig knob that RunConfig does not carry, so the
 * example builds each System by hand.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "system/experiment.hh"

namespace
{

using namespace sbulk;

constexpr std::uint32_t kProcs = 64;
constexpr std::uint64_t kChunks = 1280;

/** Run Barnes on @p sys_cfg and print one table row labelled @p fabric. */
void
runFabric(const char* fabric, SystemConfig sys_cfg)
{
    sys_cfg.numProcs = kProcs;
    sys_cfg.core.chunksToRun = kChunks / kProcs;
    const SyntheticParams params = streamParams(*findApp("Barnes"), kProcs);
    std::vector<std::unique_ptr<ThreadStream>> streams;
    for (NodeId n = 0; n < kProcs; ++n)
        streams.push_back(std::make_unique<SyntheticStream>(
            params, n, kProcs, sys_cfg.mem.l2.lineBytes,
            sys_cfg.mem.pageBytes));
    System sys(sys_cfg, std::move(streams));
    const Tick end = sys.run(4'000'000'000ull);
    const auto b = sys.breakdown();
    std::printf("%-18s %10llu %10.1f %8.2f%%\n", fabric,
                (unsigned long long)end, sys.metrics().commitLatency.mean(),
                100.0 * b.commit / b.total());
}

} // namespace

int
main()
{
    std::printf("Link-latency sensitivity of ScalableBulk commits "
                "(Barnes, %u processors, %llu chunks)\n\n",
                kProcs, (unsigned long long)kChunks);
    std::printf("%-18s %10s %10s %9s\n", "fabric", "makespan", "commitLat",
                "commit%");
    for (Tick link : {3u, 7u, 15u, 30u}) {
        SystemConfig sys_cfg;
        sys_cfg.torus.linkLatency = link;
        char label[32];
        std::snprintf(label, sizeof label, "torus %2u-cyc links",
                      unsigned(link));
        runFabric(label, sys_cfg);
    }
    SystemConfig ideal;
    ideal.directNetwork = true;
    runFabric("ideal 10-cyc p2p", ideal);
    return 0;
}
