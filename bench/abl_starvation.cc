/**
 * @file
 * Ablation: the starvation threshold MAX (Section 3.2.2) and the leader-
 * priority rotation interval.
 *
 * MAX controls when a directory reserves itself for a repeatedly-failing
 * chunk; rotation moves the priority origin so processors near low-
 * numbered modules stop winning systematically. Measured on the most
 * collision-prone workload (Radix, 64p): tail commit latency and the
 * spread of per-commit attempts.
 */

#include "bench/common.hh"

int
main(int argc, char** argv)
{
    using namespace sbulk;
    using namespace sbulk::bench;
    Options opt = Options::parse(argc, argv);
    banner("Ablation (starvation MAX / leader rotation)",
           "fairness primitives of Section 3.2.2 on Radix @ 64p");

    const AppSpec* app = findApp("Radix");

    std::printf("%-10s %10s %10s %8s %12s %12s\n", "MAX", "makespan",
                "latMean", "latP90", "reservations", "fails");
    for (std::uint32_t max : {4u, 8u, 24u, 64u, 1u << 30}) {
        RunConfig cfg;
        cfg.app = app;
        cfg.procs = 64;
        cfg.totalChunks = opt.chunks;
        cfg.proto.starvationMax = max;
        const RunResult r = runExperiment(cfg);
        char label[16];
        if (max == 1u << 30)
            std::snprintf(label, sizeof label, "off");
        else
            std::snprintf(label, sizeof label, "%u", max);
        std::printf("%-10s %10llu %10.1f %8llu %12s %12llu\n", label,
                    (unsigned long long)r.makespan, r.commitLatencyMean,
                    (unsigned long long)r.commitLatency.percentile(0.9),
                    "-", (unsigned long long)r.commitFailures);
    }

    std::printf("\n%-10s %10s %10s %8s %12s\n", "rotation", "makespan",
                "latMean", "latP90", "fails");
    for (Tick interval : {Tick(0), Tick(2000), Tick(10000), Tick(50000)}) {
        RunConfig cfg;
        cfg.app = app;
        cfg.procs = 64;
        cfg.totalChunks = opt.chunks;
        cfg.proto.leaderRotationInterval = interval;
        const RunResult r = runExperiment(cfg);
        char label[24]; // a 64-bit "%llu" takes up to 20 digits
        if (interval == 0)
            std::snprintf(label, sizeof label, "off");
        else
            std::snprintf(label, sizeof label, "%llu",
                          (unsigned long long)interval);
        std::printf("%-10s %10llu %10.1f %8llu %12llu\n", label,
                    (unsigned long long)r.makespan, r.commitLatencyMean,
                    (unsigned long long)r.commitLatency.percentile(0.9),
                    (unsigned long long)r.commitFailures);
    }
    return 0;
}
