/**
 * @file
 * Tests for the synthetic workload layer: stream statistics track their
 * parameters, regions stay disjoint, partitioning and phasing behave, the
 * Zipf sampler is correct, and the 18 application presets are well-formed
 * and produce signature-friendly footprints.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "workload/apps.hh"
#include "workload/synthetic.hh"
#include "workload/zipf.hh"

namespace sbulk
{

/**
 * Print an AppFootprint parameter as the app's name. gtest would print the
 * pointer, and gtest_discover_tests keeps that in the ctest name, which
 * ASLR then changes on every build. Declared in sbulk, beside AppSpec, so
 * argument-dependent lookup finds it.
 */
void
PrintTo(const AppSpec* app, std::ostream* os)
{
    *os << app->name;
}

namespace
{

constexpr std::uint32_t kLine = 32, kPage = 4096;

TEST(ZipfSampler, UniformWhenAlphaZero)
{
    ZipfSampler z(16, 0.0);
    Rng rng(1);
    std::map<std::uint32_t, int> counts;
    for (int i = 0; i < 32000; ++i)
        ++counts[z.sample(rng)];
    for (auto& [rank, n] : counts)
        EXPECT_NEAR(n, 2000, 300) << "rank " << rank;
}

TEST(ZipfSampler, SkewFavorsLowRanks)
{
    ZipfSampler z(64, 1.0);
    Rng rng(2);
    int lo = 0, hi = 0;
    for (int i = 0; i < 20000; ++i) {
        auto r = z.sample(rng);
        lo += r < 4;
        hi += r >= 32;
    }
    EXPECT_GT(lo, 3 * hi);
}

TEST(ZipfSampler, StaysInRange)
{
    ZipfSampler z(7, 0.8);
    Rng rng(3);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(z.sample(rng), 7u);
}

TEST(SyntheticStream, MemFractionRoughlyHolds)
{
    SyntheticParams p;
    p.memFraction = 0.25;
    SyntheticStream s(p, 0, 4, kLine, kPage);
    std::uint64_t instrs = 0, ops = 0;
    for (int i = 0; i < 20000; ++i) {
        MemOp op = s.next();
        instrs += op.gap + 1;
        ++ops;
    }
    EXPECT_NEAR(double(ops) / double(instrs), 0.25, 0.03);
}

TEST(SyntheticStream, PrivateRegionsAreThreadDisjoint)
{
    SyntheticParams p;
    p.sharedFraction = 0.0;
    p.hotFraction = 0.0;
    const std::uint32_t threads = 4;
    std::set<Addr> lines[4];
    for (NodeId t = 0; t < threads; ++t) {
        SyntheticStream s(p, t, threads, kLine, kPage);
        for (int i = 0; i < 5000; ++i)
            lines[t].insert(s.next().addr / kLine);
    }
    for (int a = 0; a < 4; ++a) {
        for (int b = a + 1; b < 4; ++b) {
            for (Addr line : lines[a])
                EXPECT_EQ(lines[b].count(line), 0u)
                    << "threads " << a << "," << b << " share line "
                    << line;
        }
    }
}

TEST(SyntheticStream, PartitionedSharedWritesNeverCollide)
{
    SyntheticParams p;
    p.sharedFraction = 0.9;
    p.sharedWriteFraction = 0.9;
    p.partitionSharedLines = true;
    p.hotFraction = 0.0;
    const std::uint32_t threads = 8;
    std::set<Addr> written[8];
    for (NodeId t = 0; t < threads; ++t) {
        SyntheticStream s(p, t, threads, kLine, kPage);
        for (int i = 0; i < 8000; ++i) {
            MemOp op = s.next();
            if (op.isWrite)
                written[t].insert(op.addr / kLine);
        }
    }
    for (int a = 0; a < 8; ++a)
        for (int b = a + 1; b < 8; ++b)
            for (Addr line : written[a])
                EXPECT_EQ(written[b].count(line), 0u);
}

TEST(SyntheticStream, SharedPagesOverlapAcrossThreads)
{
    SyntheticParams p;
    p.sharedFraction = 0.8;
    p.temporalReuse = 0.5;
    p.hotFraction = 0.0;
    const std::uint32_t threads = 4;
    const std::uint64_t priv_lines =
        std::uint64_t(threads) * p.privatePages * (kPage / kLine);
    std::set<Addr> pages[4];
    for (NodeId t = 0; t < threads; ++t) {
        SyntheticStream s(p, t, threads, kLine, kPage);
        for (int i = 0; i < 20000; ++i) {
            Addr line = s.next().addr / kLine;
            if (line >= priv_lines)
                pages[t].insert(line * kLine / kPage);
        }
    }
    // True sharing requires common pages.
    int common01 = 0;
    for (Addr page : pages[0])
        common01 += pages[1].count(page);
    EXPECT_GT(common01, 3);
}

TEST(SyntheticStream, HotRegionSharedByAll)
{
    SyntheticParams p;
    p.hotFraction = 0.5;
    p.hotLines = 4;
    p.temporalReuse = 0.0;
    p.farReuse = 0.0;
    const std::uint32_t threads = 2;
    const std::uint64_t hot_lo =
        std::uint64_t(threads) * p.privatePages * (kPage / kLine) +
        std::uint64_t(p.sharedPages) * (kPage / kLine);
    std::set<Addr> hot[2];
    for (NodeId t = 0; t < threads; ++t) {
        SyntheticStream s(p, t, threads, kLine, kPage);
        for (int i = 0; i < 5000; ++i) {
            Addr line = s.next().addr / kLine;
            if (line >= hot_lo)
                hot[t].insert(line);
        }
    }
    EXPECT_FALSE(hot[0].empty());
    int common = 0;
    for (Addr line : hot[0])
        common += hot[1].count(line);
    EXPECT_GT(common, 0) << "hot region must create true conflicts";
}

TEST(SyntheticStream, DeterministicPerSeed)
{
    SyntheticParams p;
    auto draw = [&] {
        SyntheticStream s(p, 3, 8, kLine, kPage);
        std::vector<Addr> addrs;
        for (int i = 0; i < 100; ++i)
            addrs.push_back(s.next().addr);
        return addrs;
    };
    EXPECT_EQ(draw(), draw());
}

TEST(Apps, EighteenPresets)
{
    EXPECT_EQ(splash2Apps().size(), 11u);
    EXPECT_EQ(parsecApps().size(), 7u);
    EXPECT_EQ(allApps().size(), 18u);
}

TEST(Apps, FindByName)
{
    EXPECT_NE(findApp("Radix"), nullptr);
    EXPECT_NE(findApp("Canneal"), nullptr);
    EXPECT_EQ(findApp("NotAnApp"), nullptr);
    EXPECT_EQ(findApp("Radix")->suite, "SPLASH-2");
    EXPECT_EQ(findApp("Vips")->suite, "PARSEC");
}

TEST(Apps, StreamParamsSplitPrivateFootprint)
{
    const AppSpec* app = findApp("Ocean");
    SyntheticParams p1 = streamParams(*app, 1);
    SyntheticParams p64 = streamParams(*app, 64);
    EXPECT_EQ(p1.privatePages, app->params.privatePages);
    EXPECT_EQ(p64.privatePages, app->params.privatePages / 64);
    EXPECT_NE(p1.seed, p64.seed);
}

TEST(Apps, ParamPrintsAsNameNotAddress)
{
    EXPECT_EQ(::testing::PrintToString(&allApps()[0]), allApps()[0].name);
}

class AppFootprint : public ::testing::TestWithParam<const AppSpec*>
{};

TEST_P(AppFootprint, ChunkFootprintIsSignatureFriendly)
{
    // Per-chunk distinct lines must stay in the regime where 2-Kbit
    // signatures are selective (see apps.cc); write sets smaller still.
    const AppSpec& app = *GetParam();
    SyntheticParams p = streamParams(app, 64);
    SyntheticStream s(p, 5, 64, kLine, kPage);
    for (int i = 0; i < 4000; ++i)
        s.next(); // warm the reuse histories
    double lines = 0, wlines = 0;
    const int chunks = 30;
    for (int c = 0; c < chunks; ++c) {
        std::set<Addr> l, w;
        int instrs = 0;
        while (instrs < 2000) {
            MemOp op = s.next();
            instrs += op.gap + 1;
            l.insert(op.addr / kLine);
            if (op.isWrite)
                w.insert(op.addr / kLine);
        }
        lines += double(l.size());
        wlines += double(w.size());
    }
    EXPECT_LT(lines / chunks, 90.0) << app.name;
    EXPECT_LT(wlines / chunks, 45.0) << app.name;
    EXPECT_GT(lines / chunks, 5.0) << app.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppFootprint,
    ::testing::ValuesIn([] {
        std::vector<const AppSpec*> ptrs;
        for (const auto& app : allApps())
            ptrs.push_back(&app);
        return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const AppSpec*>& info) {
        std::string name = info.param->name;
        for (char& ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace sbulk
