/**
 * @file
 * Analysis 3: group-formation liveness from the table's declared conflict
 * metadata (ConflictPolicy + traversal order).
 *
 * Section 3.2.1's guarantee — when commit groups collide, the module where
 * an incompatible pair meets fails the later arrival, so *at least one
 * group always forms* — is a property of the collision rule, not of any
 * particular schedule. This audit checks it the way the paper argues it:
 * exhaustively, over an abstract model. A configuration is a set of
 * groups, each needing a footprint of directory modules; an adversarial
 * scheduler interleaves their acquisitions one grab at a time and (when
 * the table does not declare ascending traversal) also picks each group's
 * acquisition order. The audit explores every reachable state of every
 * small configuration and reports:
 *
 *  - KeepWinner / FailBoth: a maximal execution in which *no* group forms
 *    (the at-least-one-forms guarantee broken);
 *  - Queue: a reachable state where live groups all wait on each other
 *    (acquisition deadlock — the hazard ascending traversal exists to
 *    prevent).
 *
 * KeepWinner with grab-failure cleanup is live under any traversal order
 * (every collision leaves its winner alive, and the last live group can
 * meet no collision), FailBoth is not (two groups sharing one module can
 * annihilate each other), and Queue is live exactly when acquisition
 * follows a global order. The audit re-derives all three facts from the
 * model instead of trusting them, so a policy edit in a table is caught
 * by search, not by review.
 *
 * Configurations up to 4 modules x 3 groups are explored; the failure
 * patterns (mutual annihilation, ABBA wait cycles) need only two of each,
 * so the bound is comfortably past the interesting sizes.
 */

#include "lint/lint.hh"

#include <cstdint>
#include <unordered_set>

namespace sbulk
{
namespace lint
{

namespace
{

/** One abstract collision configuration: groups over module footprints. */
struct Config
{
    int numModules = 0;
    std::vector<std::uint32_t> footprints; ///< bitmask per group
};

enum : std::uint8_t { kAlive = 0, kFormed = 1, kFailed = 2 };

struct ModelState
{
    std::vector<std::uint8_t> status;    ///< per group
    std::vector<std::uint32_t> acquired; ///< per group, module bitmask
    std::vector<std::int8_t> blockedOn;  ///< per group, module or -1
    std::vector<std::int8_t> holder;     ///< per module, group or -1
    std::vector<std::vector<std::uint8_t>> queues; ///< per module FIFO

    std::string
    key() const
    {
        std::string k;
        for (std::size_t g = 0; g < status.size(); ++g) {
            k += char('0' + status[g]);
            k += char('A' + acquired[g]);
            k += char('a' + blockedOn[g] + 1);
        }
        k += '|';
        for (std::size_t m = 0; m < holder.size(); ++m) {
            k += char('A' + holder[m] + 1);
            for (std::uint8_t q : queues[m])
                k += char('0' + q);
            k += ';';
        }
        return k;
    }
};

struct Explorer
{
    const Config& cfg;
    ConflictPolicy policy;
    bool ascending;
    std::unordered_set<std::string> visited;
    bool bad = false;

    Explorer(const Config& c, ConflictPolicy p, bool asc)
        : cfg(c), policy(p), ascending(asc)
    {
    }

    /** Release every module @p g holds; queued waiters take over. A
     *  hand-off can complete the waiter's footprint, which forms *it* and
     *  cascades its own releases. */
    void
    releaseHolds(ModelState& s, std::uint8_t g)
    {
        for (int m = 0; m < cfg.numModules; ++m) {
            if (s.holder[m] != std::int8_t(g))
                continue;
            s.holder[m] = -1;
            if (!s.queues[m].empty()) {
                const std::uint8_t h = s.queues[m].front();
                s.queues[m].erase(s.queues[m].begin());
                s.holder[m] = std::int8_t(h);
                s.acquired[h] |= 1u << m;
                s.blockedOn[h] = -1;
                if (s.acquired[h] == cfg.footprints[h] &&
                    s.status[h] == kAlive) {
                    s.status[h] = kFormed;
                    releaseHolds(s, h);
                }
            }
        }
    }

    /** The modules @p g may grab next (one bit set per candidate). */
    std::vector<int>
    candidates(const ModelState& s, std::uint8_t g) const
    {
        std::vector<int> out;
        const std::uint32_t remaining =
            cfg.footprints[g] & ~s.acquired[g];
        for (int m = 0; m < cfg.numModules; ++m) {
            if (!((remaining >> m) & 1u))
                continue;
            out.push_back(m);
            if (ascending)
                break; // only the lowest-numbered unheld module
        }
        return out;
    }

    /** Apply one grab by @p g at module @p m (collision rule included). */
    void
    step(ModelState& s, std::uint8_t g, int m)
    {
        if (s.holder[m] < 0) {
            s.holder[m] = std::int8_t(g);
            s.acquired[g] |= 1u << m;
            if (s.acquired[g] == cfg.footprints[g]) {
                s.status[g] = kFormed;
                releaseHolds(s, g); // commit completes; waiters proceed
            }
            return;
        }
        const std::uint8_t h = std::uint8_t(s.holder[m]);
        switch (policy) {
          case ConflictPolicy::KeepWinner:
            // The collision module fails the later arrival; g_failure
            // cleanup releases the loser's partial ring.
            s.status[g] = kFailed;
            releaseHolds(s, g);
            break;
          case ConflictPolicy::FailBoth:
            s.status[g] = kFailed;
            s.status[h] = kFailed;
            releaseHolds(s, g);
            releaseHolds(s, h);
            break;
          case ConflictPolicy::Queue:
            s.queues[m].push_back(g);
            s.blockedOn[g] = std::int8_t(m);
            break;
          case ConflictPolicy::None:
            break; // not reached: the audit skips None tables
        }
    }

    void
    dfs(const ModelState& s)
    {
        if (bad || !visited.insert(s.key()).second)
            return;

        bool any_move = false;
        for (std::uint8_t g = 0; g < cfg.footprints.size(); ++g) {
            if (s.status[g] != kAlive || s.blockedOn[g] >= 0)
                continue;
            for (int m : candidates(s, g)) {
                any_move = true;
                ModelState next = s;
                step(next, g, m);
                dfs(next);
                if (bad)
                    return;
            }
        }
        if (any_move)
            return;

        // Terminal state: no live, unblocked group can move.
        if (policy == ConflictPolicy::Queue) {
            for (std::uint8_t st : s.status)
                if (st == kAlive) { // blocked forever: wait cycle
                    bad = true;
                    return;
                }
        } else {
            bool formed = false;
            for (std::uint8_t st : s.status)
                formed = formed || (st == kFormed);
            if (!formed)
                bad = true; // every group failed
        }
    }

    bool
    run()
    {
        ModelState s;
        const std::size_t G = cfg.footprints.size();
        s.status.assign(G, kAlive);
        s.acquired.assign(G, 0);
        s.blockedOn.assign(G, -1);
        s.holder.assign(std::size_t(cfg.numModules), -1);
        s.queues.assign(std::size_t(cfg.numModules), {});
        dfs(s);
        return bad;
    }
};

std::string
renderConfig(const Config& cfg)
{
    std::string out = std::to_string(cfg.numModules) + " modules, groups";
    for (std::size_t g = 0; g < cfg.footprints.size(); ++g) {
        out += g == 0 ? " " : ", ";
        out += 'g';
        out += std::to_string(g);
        out += "={";
        bool first = true;
        for (int m = 0; m < cfg.numModules; ++m) {
            if (!((cfg.footprints[g] >> m) & 1u))
                continue;
            if (!first)
                out += ",";
            out += 'm';
            out += std::to_string(m);
            first = false;
        }
        out += "}";
    }
    return out;
}

/** All (module count, group count) sizes the audit sweeps. */
constexpr struct { int modules; int groups; } kSizes[] = {
    {2, 2}, {3, 2}, {4, 2}, {2, 3}, {3, 3},
};

} // namespace

std::vector<Finding>
auditGroupFormation(const DispatchSpec& spec)
{
    std::vector<Finding> out;
    if (spec.conflict == ConflictPolicy::None)
        return out;

    const std::string where =
        std::string(spec.protocol) + "." + spec.controller;

    for (const auto& size : kSizes) {
        const std::uint32_t subsets = (1u << size.modules) - 1;
        // Cartesian product of non-empty footprints, one per group.
        std::vector<std::uint32_t> pick(std::size_t(size.groups), 1);
        while (true) {
            Config cfg;
            cfg.numModules = size.modules;
            cfg.footprints = pick;
            Explorer ex(cfg, spec.conflict, spec.ascendingTraversal);
            if (ex.run()) {
                const char* what =
                    spec.conflict == ConflictPolicy::Queue
                        ? "acquisition deadlock: every live group waits on "
                          "another"
                        : "an execution exists in which every group fails "
                          "(at-least-one-forms guarantee broken)";
                out.push_back(Finding{
                    "group", where,
                    std::string(what) + " — policy " +
                        conflictPolicyName(spec.conflict) + ", " +
                        (spec.ascendingTraversal ? "ascending"
                                                 : "adversarial") +
                        " traversal, " + renderConfig(cfg)});
                return out; // first (smallest) counterexample suffices
            }

            // Advance the footprint odometer.
            std::size_t i = 0;
            for (; i < pick.size(); ++i) {
                if (pick[i] < subsets) {
                    ++pick[i];
                    for (std::size_t j = 0; j < i; ++j)
                        pick[j] = 1;
                    break;
                }
            }
            if (i == pick.size())
                break;
        }
    }
    return out;
}

} // namespace lint
} // namespace sbulk
