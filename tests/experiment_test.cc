/**
 * @file
 * Tests of the experiment harness (system/experiment.hh): work division,
 * metric harvesting, reproducibility, cross-protocol invariants, and the
 * fixed-total-work speedup methodology the figures rely on.
 */

#include <gtest/gtest.h>

#include "system/experiment.hh"

namespace sbulk
{
namespace
{

RunConfig
smallRun(const char* app, std::uint32_t procs, ProtocolKind proto)
{
    RunConfig cfg;
    cfg.app = findApp(app);
    cfg.procs = procs;
    cfg.protocol = proto;
    cfg.totalChunks = 128;
    cfg.chunkInstrs = 500;
    return cfg;
}

TEST(Experiment, HarvestsConsistentMetrics)
{
    const RunResult r =
        runExperiment(smallRun("LU", 8, ProtocolKind::ScalableBulk));
    EXPECT_EQ(r.app, "LU");
    EXPECT_EQ(r.procs, 8u);
    EXPECT_EQ(r.commits, 128u);
    EXPECT_EQ(r.commitLatency.count(), r.commits);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.breakdown.useful, 0.0);
    EXPECT_GT(r.loads, 0u);
    EXPECT_GE(r.loads, r.l1Hits);
    EXPECT_GT(r.traffic.totalMessages(), 0u);
}

TEST(Experiment, RecordsComponentStatsOnRequest)
{
    StatSet stats;
    const RunResult r = runExperiment(
        smallRun("LU", 8, ProtocolKind::ScalableBulk), &stats);
    ASSERT_TRUE(stats.has("commits"));
    EXPECT_EQ(stats.get("commits"), double(r.commits));
    EXPECT_TRUE(stats.has("core7.chunksCommitted"));
}

TEST(Experiment, WorkIsDividedAcrossCores)
{
    // 128 chunks over 8 cores = 16 each; over 16 cores = 8 each. Total
    // commits stay fixed — the paper's fixed-problem-size methodology.
    const RunResult r8 =
        runExperiment(smallRun("LU", 8, ProtocolKind::ScalableBulk));
    const RunResult r16 =
        runExperiment(smallRun("LU", 16, ProtocolKind::ScalableBulk));
    EXPECT_EQ(r8.commits, r16.commits);
    EXPECT_LT(r16.makespan, r8.makespan) << "more cores, less time";
}

TEST(Experiment, Reproducible)
{
    const RunConfig cfg = smallRun("Barnes", 8, ProtocolKind::ScalableBulk);
    const RunResult a = runExperiment(cfg);
    const RunResult b = runExperiment(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.commitFailures, b.commitFailures);
    EXPECT_EQ(a.traffic.totalMessages(), b.traffic.totalMessages());
}

TEST(Experiment, SpeedupHelper)
{
    RunResult one, many;
    one.makespan = 1000;
    many.makespan = 100;
    EXPECT_DOUBLE_EQ(speedup(one, many), 10.0);
    many.makespan = 0;
    EXPECT_DOUBLE_EQ(speedup(one, many), 0.0);
}

TEST(Experiment, SingleProcessorBaselineRuns)
{
    RunConfig cfg = smallRun("Swaptions", 1, ProtocolKind::ScalableBulk);
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.commits, 128u);
    // One processor: every chunk uses exactly the local directory.
    EXPECT_DOUBLE_EQ(r.dirsPerCommitMean, 1.0);
    EXPECT_EQ(r.squashesTrueConflict, 0u);
}

class ExperimentProtocols : public ::testing::TestWithParam<ProtocolKind>
{};

TEST_P(ExperimentProtocols, AllAppsTinyRunCompletes)
{
    // One smoke chunk budget for every preset under every protocol: the
    // cross-product that most often exposes protocol deadlocks.
    for (const AppSpec& app : allApps()) {
        RunConfig cfg;
        cfg.app = &app;
        cfg.procs = 16;
        cfg.protocol = GetParam();
        cfg.totalChunks = 64;
        cfg.chunkInstrs = 500;
        cfg.tickLimit = 500'000'000;
        const RunResult r = runExperiment(cfg);
        EXPECT_EQ(r.commits, 64u)
            << app.name << " under " << protocolName(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ExperimentProtocols,
    ::testing::Values(ProtocolKind::ScalableBulk, ProtocolKind::TCC,
                      ProtocolKind::SEQ, ProtocolKind::BulkSC),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
        return protocolName(info.param);
    });

} // namespace
} // namespace sbulk
