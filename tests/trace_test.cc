/**
 * @file
 * Unit tests for the --debug-trace printer (proto/trace_printer.hh) and
 * its flag: category parsing and filtering, the stamped line format, and a
 * real run printing its commits.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cli.hh"
#include "proto/trace_printer.hh"
#include "system/experiment.hh"

namespace sbulk
{
namespace
{

using Cat = TracePrinter::Cat;

/** A commit id on processor @p proc. */
CommitId
commitOf(NodeId proc, std::uint64_t seq)
{
    return CommitId{ChunkTag{proc, seq}, 0};
}

TEST(TraceTest, DisabledByDefault)
{
    std::ostringstream os;
    TracePrinter printer(0, os);
    EXPECT_FALSE(printer.enabled(Cat::Commit));
    printer.onCommitSuccess(1, commitOf(1, 5));
    EXPECT_TRUE(os.str().empty());
}

TEST(TraceTest, EnabledCategoryEmitsStampedLine)
{
    std::ostringstream os;
    TracePrinter printer(TracePrinter::bit(Cat::Group), os);
    printer.onGroupFormed(4, commitOf(2, 7), NodeSet::of(1, 4, 9));
    // One "tick: category: text" line; unattached, the tick reads 0.
    EXPECT_EQ(os.str(), "         0: group : dir 4 formed group for (2,7): "
                        "3 members\n");
}

TEST(TraceTest, OtherCategoriesStaySilent)
{
    std::ostringstream os;
    TracePrinter printer(TracePrinter::bit(Cat::Group), os);
    printer.onLineCommitted(0, 0x40, commitOf(1, 1));
    printer.onCommitSuccess(1, commitOf(1, 1));
    printer.onChunkRead(1, ChunkTag{1, 1}, 0x40);
    EXPECT_TRUE(os.str().empty());
}

TEST(TraceTest, EnableListParsesNames)
{
    TracePrinter::Mask mask = 0;
    EXPECT_EQ(cli::traceCategories(mask)("commit,squash"), std::nullopt);
    const TracePrinter printer(mask);
    EXPECT_TRUE(printer.enabled(Cat::Commit));
    EXPECT_TRUE(printer.enabled(Cat::Squash));
    EXPECT_FALSE(printer.enabled(Cat::Read));
}

TEST(TraceTest, EnableListAll)
{
    TracePrinter::Mask mask = 0;
    EXPECT_EQ(cli::traceCategories(mask)("all"), std::nullopt);
    const TracePrinter printer(mask);
    for (std::size_t c = 0; c < std::size_t(Cat::Count); ++c)
        EXPECT_TRUE(printer.enabled(Cat(c)));
}

TEST(TraceTest, EnableListRejectsUnknown)
{
    TracePrinter::Mask mask = 0;
    const cli::Error err = cli::traceCategories(mask)("commit,bogus");
    ASSERT_TRUE(err);
    EXPECT_NE(err->find("'bogus'"), std::string::npos) << *err;
}

TEST(TraceTest, NamesRoundTrip)
{
    for (std::size_t c = 0; c < std::size_t(Cat::Count); ++c) {
        const Cat cat = Cat(c);
        EXPECT_EQ(TracePrinter::maskOf(TracePrinter::catName(cat)),
                  TracePrinter::bit(cat));
    }
    EXPECT_EQ(TracePrinter::maskOf("nonsense"), 0u);
}

TEST(TraceTest, TccRunPrintsItsCommits)
{
    // Before the printer, only ScalableBulk had trace points.
    RunConfig cfg;
    cfg.app = findApp("LU");
    cfg.procs = 4;
    cfg.protocol = ProtocolKind::TCC;
    cfg.totalChunks = 16;
    std::ostringstream os;
    TracePrinter printer(TracePrinter::bit(Cat::Commit), os);
    const RunResult traced = runExperiment(cfg, nullptr, &printer);

    std::istringstream lines(os.str());
    std::size_t successes = 0;
    std::size_t count = 0;
    std::string last;
    for (std::string line; std::getline(lines, line); ++count) {
        EXPECT_NE(line.find(": commit: proc "), std::string::npos) << line;
        successes += line.find("SUCCESS") != std::string::npos;
        last = line;
    }
    EXPECT_EQ(successes, traced.commits);
    EXPECT_GT(count, successes) << "requests are printed too";
    // Lines are stamped with the run's clock.
    ASSERT_FALSE(last.empty());
    EXPECT_GT(std::stoull(last), 0u) << last;

    // Watching changes nothing the run computes.
    const RunResult plain = runExperiment(cfg);
    EXPECT_EQ(plain.makespan, traced.makespan);
    EXPECT_EQ(plain.traffic.totalMessages(), traced.traffic.totalMessages());
}

} // namespace
} // namespace sbulk
