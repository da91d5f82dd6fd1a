/**
 * @file
 * Duplicate-delivery conformance, table-driven off the dispatch tables:
 * for every registered controller and every real (routable) message kind
 * it receives, a targeted fault rule duplicates deliveries of that kind
 * and the run must stay oracle-clean — the transport dedup layer absorbs
 * each duplicate before the tables (whose duplicate rows are declared
 * Unreachable) ever see it. Also checks the lint-audited recovery
 * metadata: every state of every table declares its dup and timeout
 * dispositions.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "check/replay.hh"
#include "cli.hh"
#include "fault/fault_plan.hh"
#include "proto/dispatch.hh"

namespace
{

using namespace sbulk;
using namespace sbulk::check;
using fault::FaultAction;
using fault::FaultPlan;
using fault::FaultRule;

ProtocolKind
protocolOf(const char* name)
{
    const std::optional<ProtocolKind> kind = cli::parseProtocol(name);
    if (!kind)
        ADD_FAILURE() << "unknown protocol '" << name << "'";
    return kind.value_or(ProtocolKind::ScalableBulk);
}

TEST(DuplicateDelivery, EveryRealKindOfEveryTableSurvivesDuplication)
{
    std::uint64_t total_dups_injected = 0;
    std::uint64_t total_dups_dropped = 0;

    for (const DispatchSpec* spec : allDispatchSpecs()) {
        const ProtocolKind proto = protocolOf(spec->protocol);
        for (std::size_t k = 0; k < spec->numRealKinds; ++k) {
            FaultPlan plan;
            plan.seed = 7;
            FaultRule rule;
            rule.action = FaultAction::Dup;
            rule.hasKind = true;
            rule.kind = spec->kinds[k];
            rule.n = 1;     // fire from the first match...
            rule.every = 1; // ...and on every match after it
            plan.rules.push_back(rule);
            ASSERT_TRUE(plan.enabled());

            CheckConfig cfg;
            cfg.protocol = proto;
            cfg.procs = 4;
            cfg.chunksPerCore = 4;
            cfg.faults = plan;
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                cfg.seed = seed;
                const CheckResult r = runSchedule(cfg);
                EXPECT_TRUE(r.completed)
                    << spec->protocol << "." << spec->controller
                    << " kind " << spec->kindNames[k] << " seed " << seed;
                EXPECT_TRUE(r.ok())
                    << spec->protocol << "." << spec->controller
                    << " kind " << spec->kindNames[k] << " seed " << seed
                    << ": "
                    << (r.violations.empty() ? ""
                                             : r.violations[0].oracle)
                    << " "
                    << (r.violations.empty() ? ""
                                             : r.violations[0].detail);
                // Every injected duplicate must be suppressed by dedup:
                // none may reach a dispatch table.
                EXPECT_EQ(r.dupsDropped, r.faultsInjected)
                    << spec->protocol << "." << spec->controller
                    << " kind " << spec->kindNames[k] << " seed " << seed;
                total_dups_injected += r.faultsInjected;
                total_dups_dropped += r.dupsDropped;
            }
        }
    }

    // The sweep as a whole must have actually exercised duplication —
    // a zero here means the targeted rules never matched anything.
    EXPECT_GT(total_dups_injected, 0u);
    EXPECT_EQ(total_dups_dropped, total_dups_injected);
}

TEST(DuplicateDelivery, BlanketDuplicationOfEverythingStaysClean)
{
    // dup=1: literally every cross-tile message is delivered twice.
    for (ProtocolKind proto :
         {ProtocolKind::ScalableBulk, ProtocolKind::TCC, ProtocolKind::SEQ,
          ProtocolKind::BulkSC}) {
        CheckConfig cfg;
        cfg.protocol = proto;
        cfg.procs = 4; // guarantees cross-tile (faultable) traffic
        std::string err;
        ASSERT_TRUE(FaultPlan::parse("seed=19, dup=1", cfg.faults, &err))
            << err;
        std::uint64_t dropped = 0;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            cfg.seed = seed;
            const CheckResult r = runSchedule(cfg);
            EXPECT_TRUE(r.completed && r.ok())
                << "protocol " << int(proto) << " seed " << seed << ": "
                << (r.violations.empty() ? "" : r.violations[0].detail);
            EXPECT_EQ(r.dupsDropped, r.faultsInjected);
            dropped += r.dupsDropped;
        }
        EXPECT_GT(dropped, 0u) << "protocol " << int(proto);
    }
}

TEST(DuplicateDelivery, EveryTableDeclaresRecoveryForEveryState)
{
    // The static half of the contract: the lint-audited RecoveryRow
    // metadata justifies a dup and a timeout disposition per state.
    for (const DispatchSpec* spec : allDispatchSpecs()) {
        ASSERT_NE(spec->recovery, nullptr)
            << spec->protocol << "." << spec->controller;
        EXPECT_EQ(spec->numRecovery, spec->numStates)
            << spec->protocol << "." << spec->controller;
        for (std::size_t s = 0; s < spec->numStates; ++s) {
            bool covered = false;
            for (std::size_t i = 0; i < spec->numRecovery; ++i) {
                const RecoveryRow& row = spec->recovery[i];
                if (row.state != s)
                    continue;
                covered = true;
                EXPECT_TRUE(row.dup && row.dup[0])
                    << spec->protocol << "." << spec->controller << " "
                    << spec->stateName(std::uint8_t(s));
                EXPECT_TRUE(row.timeout && row.timeout[0])
                    << spec->protocol << "." << spec->controller << " "
                    << spec->stateName(std::uint8_t(s));
            }
            EXPECT_TRUE(covered)
                << spec->protocol << "." << spec->controller << " state "
                << spec->stateName(std::uint8_t(s)) << " has no recovery "
                << "row";
        }
    }
}

} // namespace
