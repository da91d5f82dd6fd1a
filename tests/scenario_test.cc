/**
 * @file
 * Serving-scenario library tests: every scenario generates a valid,
 * deterministic trace (byte-identical for the same params, seed-sensitive
 * where it samples), drives runExperiment across protocols with coherent
 * per-tenant accounting, and composes with transport fault injection.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "system/experiment.hh"
#include "trace/io.hh"
#include "trace/scenarios.hh"

namespace sbulk
{

namespace atrace
{
/**
 * Print a ScenarioSuite parameter as the scenario's name. gtest would print
 * the pointer, and gtest_discover_tests keeps that in the ctest name, which
 * ASLR then changes on every build. Declared in sbulk::atrace, beside
 * ScenarioSpec, so argument-dependent lookup finds it.
 */
void
PrintTo(const ScenarioSpec* spec, std::ostream* os)
{
    *os << spec->name;
}
} // namespace atrace

namespace
{

atrace::ScenarioParams
smallParams()
{
    atrace::ScenarioParams params;
    params.cores = 4;
    params.tenants = 3;
    params.requests = 64;
    params.seed = 5;
    return params;
}

std::string
generate(const atrace::ScenarioSpec& spec,
         const atrace::ScenarioParams& params)
{
    std::stringstream out;
    std::string err;
    EXPECT_TRUE(atrace::generateScenario(spec, params, out, /*text=*/false,
                                         &err))
        << spec.name << ": " << err;
    return out.str();
}

class ScenarioSuite
    : public ::testing::TestWithParam<const atrace::ScenarioSpec*>
{
};

TEST_P(ScenarioSuite, GeneratesByteIdenticalTracesForTheSameParams)
{
    const atrace::ScenarioSpec& spec = *GetParam();
    const std::string first = generate(spec, smallParams());
    const std::string second = generate(spec, smallParams());
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST_P(ScenarioSuite, EmitsAValidTraceCoveringEveryCore)
{
    const atrace::ScenarioSpec& spec = *GetParam();
    const atrace::ScenarioParams params = smallParams();
    std::stringstream in(generate(spec, params));

    atrace::TraceSummary sum;
    std::string err;
    ASSERT_TRUE(atrace::scanTrace(in, sum, &err)) << spec.name << ": "
                                                  << err;
    EXPECT_EQ(sum.header.numCores, params.cores);
    EXPECT_EQ(sum.records, sum.header.recordCount);
    EXPECT_GT(sum.header.chunkInstrs, 0u);
    EXPECT_EQ(sum.header.seed, params.seed);

    // Replay needs records on every core, and the end-of-chunk markers
    // (one per request) must add up to the header's chunk budget.
    std::uint64_t marks = 0;
    for (std::uint32_t c = 0; c < params.cores; ++c) {
        EXPECT_GT(sum.opsPerCore[c], 0u)
            << spec.name << ": core " << c << " has no records";
        marks += sum.chunksPerCore[c];
    }
    EXPECT_EQ(marks, sum.header.totalChunks);
    EXPECT_GE(marks, params.requests);
}

TEST_P(ScenarioSuite, ReplaysWithCoherentPerTenantAccounting)
{
    const atrace::ScenarioSpec& spec = *GetParam();
    for (ProtocolKind proto :
         {ProtocolKind::ScalableBulk, ProtocolKind::TCC}) {
        RunConfig cfg;
        cfg.scenario = spec.name;
        cfg.scenarioParams = smallParams();
        cfg.procs = cfg.scenarioParams.cores;
        cfg.protocol = proto;
        cfg.totalChunks = 0; // defer to the generated header
        const RunResult r = runExperiment(cfg);

        EXPECT_TRUE(r.traced);
        EXPECT_EQ(r.app, spec.name);
        EXPECT_GT(r.commits, 0u);
        EXPECT_EQ(r.seed, cfg.scenarioParams.seed);
        ASSERT_FALSE(r.tenants.empty()) << spec.name;
        std::uint64_t commits = 0;
        std::uint16_t last = 0;
        for (std::size_t i = 0; i < r.tenants.size(); ++i) {
            if (i > 0) {
                EXPECT_GT(r.tenants[i].tenant, last) << "unsorted tenants";
            }
            last = r.tenants[i].tenant;
            commits += r.tenants[i].commits;
            EXPECT_EQ(r.tenants[i].commitLatency.count(),
                      r.tenants[i].commits);
        }
        // Per-tenant commits partition the run's commits exactly.
        EXPECT_EQ(commits, r.commits) << spec.name << " on "
                                      << protocolName(proto);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioSuite, ::testing::ValuesIn([] {
        std::vector<const atrace::ScenarioSpec*> specs;
        for (const atrace::ScenarioSpec& spec : atrace::allScenarios())
            specs.push_back(&spec);
        return specs;
    }()),
    [](const ::testing::TestParamInfo<const atrace::ScenarioSpec*>& info) {
        std::string name = info.param->name;
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Scenarios, ParamPrintsAsNameNotAddress)
{
    EXPECT_EQ(::testing::PrintToString(&atrace::allScenarios()[0]),
              atrace::allScenarios()[0].name);
}

TEST(Scenarios, RegistryCoversTheThreeServingFamilies)
{
    bool kv = false, bursty = false, pipeline = false;
    for (const atrace::ScenarioSpec& spec : atrace::allScenarios()) {
        ASSERT_NE(atrace::findScenario(spec.name), nullptr);
        const std::string family = spec.family;
        kv = kv || family == "kv";
        bursty = bursty || family == "bursty";
        pipeline = pipeline || family == "pipeline";
    }
    EXPECT_TRUE(kv && bursty && pipeline);
    EXPECT_EQ(atrace::findScenario("no-such-scenario"), nullptr);
}

TEST(Scenarios, SeedChangesTheSampledTraces)
{
    const atrace::ScenarioSpec* spec = atrace::findScenario("kv-zipf");
    ASSERT_NE(spec, nullptr);
    atrace::ScenarioParams params = smallParams();
    const std::string first = generate(*spec, params);
    params.seed = 6;
    EXPECT_NE(generate(*spec, params), first);
}

TEST(Scenarios, BadParamsFailWithAMessage)
{
    const atrace::ScenarioSpec& spec = atrace::allScenarios().front();
    std::stringstream out;
    std::string err;

    atrace::ScenarioParams params = smallParams();
    params.cores = 0;
    EXPECT_FALSE(atrace::generateScenario(spec, params, out, false, &err));
    EXPECT_NE(err.find("cores"), std::string::npos) << err;

    params = smallParams();
    params.tenants = 5000;
    EXPECT_FALSE(atrace::validateScenarioParams(params, &err));
    EXPECT_NE(err.find("tenants"), std::string::npos) << err;

    params = smallParams();
    params.requests = 0;
    EXPECT_FALSE(atrace::validateScenarioParams(params, &err));
    EXPECT_NE(err.find("requests"), std::string::npos) << err;
}

TEST(Scenarios, ComposesWithTransportFaultInjection)
{
    // The same scenario run with and without an injection plan: faults
    // must actually fire, and the recovery layer must still deliver every
    // request (same commit count, possibly different timing).
    RunConfig cfg;
    cfg.scenario = "kv-oltp";
    cfg.scenarioParams = smallParams();
    cfg.procs = cfg.scenarioParams.cores;
    cfg.totalChunks = 0;
    const RunResult clean = runExperiment(cfg);

    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(
        fault::FaultPlan::parse("seed=9,drop=0.02,dup=0.01", plan, &err))
        << err;
    ASSERT_TRUE(plan.enabled());
    cfg.faults = plan;
    const RunResult faulted = runExperiment(cfg);

    EXPECT_GT(faulted.faultsInjected, 0u);
    EXPECT_EQ(faulted.commits, clean.commits);
    std::uint64_t commits = 0;
    for (const RunResult::TenantStats& t : faulted.tenants)
        commits += t.commits;
    EXPECT_EQ(commits, faulted.commits);
}

} // namespace
} // namespace sbulk
