/**
 * @file
 * Test helper for runs checked by check::OracleSuite, the one invariant
 * oracle of the simulator (CHECKING.md §2). A test attaches the suite
 * through SystemConfig::observer, points its clock at the System's queue,
 * runs, then calls finishOracles() and expects no violations.
 */

#ifndef SBULK_TESTS_ORACLE_HARNESS_HH
#define SBULK_TESTS_ORACLE_HARNESS_HH

#include <string>

#include "check/oracles.hh"
#include "system/system.hh"

namespace sbulk
{

/**
 * Drain what System::run() left queued, then run the end-of-run oracles.
 * run() returns as soon as the last core finishes, before the protocol's
 * cleanup traffic (occupancy releases, commit_done fan-out) has landed;
 * judged undrained, quiescence fires on SEQ and ScalableBulk.
 */
inline void
finishOracles(System& sys, check::OracleSuite& suite)
{
    while (sys.eventQueue().step()) {
    }
    suite.finalize(sys.allCoresDone(), sys.protocolQuiescent());
}

/** The first few violations, "[oracle] detail" one a line, for messages. */
inline std::string
describe(const check::OracleSuite& suite)
{
    std::string out;
    std::size_t shown = 0;
    for (const check::Violation& v : suite.violations()) {
        if (++shown > 3)
            break;
        out += "[" + v.oracle + "] " + v.detail + "\n";
    }
    return out;
}

} // namespace sbulk

#endif // SBULK_TESTS_ORACLE_HARNESS_HH
