/**
 * @file
 * FaultTransport: deterministic fault injection at the Network boundary,
 * paired with the reliable-ordered (ARQ) recovery protocol that lets the
 * commit protocols survive it (see ROBUSTNESS.md).
 *
 * The transport interposes on every send and every wire arrival
 * (TransportLayer). On the send side it evaluates the FaultPlan — targeted
 * rules first, then the random rates — and injects drops, duplicates,
 * delay spikes, link stalls, and directory pauses. With ARQ on, every
 * cross-tile message is also sequence-numbered per (src, dst, port)
 * channel, a clone is held for retransmission until the receiver acks it,
 * and arrivals are deduplicated and released strictly in sequence order —
 * restoring the exactly-once in-order delivery the dispatch tables assume
 * (their duplicate rows are declared Unreachable for a reason).
 */

#ifndef SBULK_FAULT_TRANSPORT_HH
#define SBULK_FAULT_TRANSPORT_HH

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault_plan.hh"
#include "net/network.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace sbulk
{
struct ProtoConfig;
}

namespace sbulk::fault
{

/**
 * Transport-level delivery acknowledgment. Consumed by the transport
 * before dispatch; no protocol handler ever sees one.
 */
struct NetAckMsg : Message
{
    /** Channel key of the acknowledged message (see channelKey()). */
    std::uint64_t channel = 0;
    /** Sequence number being acknowledged. */
    std::uint32_t ackSeq = 0;

    NetAckMsg(NodeId src_, NodeId dst_, std::uint64_t channel_,
              std::uint32_t ack_seq)
        : Message(src_, dst_, Port::Proc, MsgClass::Other, kNetAckKind, 8),
          channel(channel_), ackSeq(ack_seq)
    {}

    SBULK_MESSAGE_CLONE(NetAckMsg)
};

/** One injected fault, recorded for replay diagnosis. */
struct InjectedFault
{
    Tick tick = 0;
    FaultAction action = FaultAction::Drop;
    MsgClass cls = MsgClass::Other;
    std::uint16_t kind = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    Port dstPort = Port::Proc;
};

/** Degradation metrics of one faulted run (ISSUE: stats surface). */
struct FaultStats
{
    Scalar dropsInjected;
    Scalar dupsInjected;
    Scalar delaysInjected;
    Scalar stallsInjected;
    Scalar pausesInjected;
    /** Sender-side timer/kick retransmissions. */
    Scalar retransmissions;
    /** Receiver-side duplicate suppressions (ARQ dedup). */
    Scalar dupsDropped;
    Scalar acksSent;
    /** Watchdog kick() nudges received. */
    Scalar kicks;
    /**
     * Send-to-ack latency of messages that needed at least one
     * retransmission — the cost of recovering from each loss.
     */
    Distribution recoveryLatency{100, 128};

    /** Snapshot everything into @p out under "<prefix>.". */
    void record(StatSet& out, const std::string& prefix) const;
};

/**
 * The one TransportLayer implementation: fault injector + ARQ recovery.
 *
 * Deterministic by construction: the fault RNG is seeded from the plan
 * seed mixed with the caller-supplied stream salt (the run's schedule or
 * workload seed, so each run of a seed matrix draws an independent fault
 * stream) and consulted in message-stream order — a run replays exactly
 * from (schedule seed, serialized plan). Draws for zero rates are skipped
 * entirely — a fault-free plan consumes no randomness and perturbs
 * nothing.
 *
 * Construction attaches the transport to the network and destruction
 * detaches it. Construction also sets Network::allowChannelReorder() to
 * the plan's ARQ switch: with ARQ, delay faults may reorder the wire while
 * the transport restores order before dispatch; without ARQ the transport
 * clamps delays to keep each channel FIFO and the network's FIFO
 * assertion stays armed.
 */
class FaultTransport : public TransportLayer
{
  public:
    /** @p stream_salt decorrelates runs of a seed sweep (pass the run's
     *  schedule/workload seed); the same (plan, salt) pair always draws
     *  the same fault stream. */
    FaultTransport(Network& net, const FaultPlan& plan,
                   std::uint64_t stream_salt = 0);
    ~FaultTransport() override;

    /**
     * Arm the protocol recovery layer the plan's faults are aimed at (see
     * ROBUSTNESS.md): seeded capped-exponential retry backoff and, unless
     * the plan turns it off, per-request watchdogs that kick the transport
     * into retransmitting (dedup makes the kick idempotent).
     */
    static void armRecovery(const FaultPlan& plan, ProtoConfig& proto);

    void onSend(MessagePtr msg) override;
    void onArrive(MessagePtr msg) override;
    void kick(NodeId node) override;

    const FaultPlan& plan() const { return _plan; }
    const FaultStats& stats() const { return _stats; }
    const std::vector<InjectedFault>& injected() const { return _injected; }

    /**
     * True when no message is awaiting retransmission, no out-of-order
     * arrival is held back, and no paused directory holds deliveries. At
     * the end of a recovered run this must hold — a non-quiescent
     * transport means a loss was never repaired.
     */
    bool quiescent() const;

    /**
     * Human-readable description of everything still in flight (pending
     * retransmissions, holdbacks, paused gates) — the diagnosis attached
     * to liveness violations: which channel, which message class/kind.
     * Empty when quiescent.
     */
    std::string describePending() const;

  private:
    /** Sender-side copy of an unacked message. */
    struct Pending
    {
        MessagePtr copy;
        Tick firstSent = 0;
        std::uint32_t attempts = 0;
        Tick nextRetxAt = 0;
    };

    /** Per-(src, dst, port) channel state, both directions of ARQ. */
    struct Channel
    {
        /// @name Sender side
        /// @{
        std::uint32_t lastSentSeq = 0;
        std::map<std::uint32_t, Pending> pending;
        bool timerArmed = false;
        /** Link stalled until this tick (Stall faults). */
        Tick stallUntil = 0;
        /** Without ARQ: earliest permitted departure (FIFO clamp). */
        Tick minDepartAt = 0;
        /// @}

        /// @name Receiver side
        /// @{
        std::uint32_t nextDeliverSeq = 1;
        std::map<std::uint32_t, MessagePtr> holdback;
        /// @}

        /**
         * Matches seen per targeted rule (indexes FaultPlan::rules),
         * counted on this channel alone. Per-channel counters make
         * `rule=ACTION/SEL/n` select the same message at any shard
         * count: each channel's send order is canonical (FIFO, one
         * sender), whereas the machine-global interleaving of sends
         * across channels is not. Lazily sized on first decide().
         */
        std::vector<std::uint64_t> ruleMatches;
    };

    /** Arrival-side gate of one directory module (Pause faults). */
    struct DirGate
    {
        Tick pausedUntil = 0;
        std::vector<MessagePtr> held;
        bool flushArmed = false;
    };

    static std::uint64_t
    channelKey(NodeId src, NodeId dst, Port port)
    {
        return (std::uint64_t(src) << 40) | (std::uint64_t(dst) << 8) |
               std::uint64_t(port);
    }

    /** Evaluate rules + rates; returns false if the message was dropped. */
    struct Decision
    {
        bool drop = false;
        bool dup = false;
        Tick delay = 0;
    };
    Decision decide(const Message& msg, Channel& c);
    void recordInjected(FaultAction a, const Message& msg);

    /** Put a message on the wire now or after @p delay ticks. */
    void wireDelayed(MessagePtr msg, Tick delay);

    void sendAck(const Message& msg, std::uint64_t key);
    void handleAck(const NetAckMsg& ack);

    /** In-order handoff toward dispatch, through the directory gate. */
    void deliverToDst(MessagePtr msg);
    void flushGate(NodeId node);

    void armRetx(std::uint64_t key);
    void retxFire(std::uint64_t key);
    /** Retransmit every due pending entry of @p c; returns count sent. */
    std::size_t retransmitDue(Channel& c, Tick now, bool force);

    /** The calling thread's queue (its shard's under sharded PDES; the
     *  global serial queue otherwise) — timers must fire where the
     *  caller executes or no shard would ever run them. */
    EventQueue& eq() const { return _net.eventQueue(); }

    /**
     * Serializes every entry point. The transport's channel/gate tables
     * are machine-global, and under sharded PDES onSend/onArrive fire
     * concurrently from shard threads. Recursive because dispatch()
     * synchronously runs the destination handler, whose protocol code
     * may immediately send — re-entering onSend on the same thread.
     * Uncontended (the serial case) this is a single atomic exchange.
     */
    mutable std::recursive_mutex _mu;
    FaultPlan _plan;
    Rng _rng;
    FaultStats _stats;
    std::unordered_map<std::uint64_t, Channel> _channels;
    std::unordered_map<NodeId, DirGate> _gates;
    std::vector<InjectedFault> _injected;
};

} // namespace sbulk::fault

#endif // SBULK_FAULT_TRANSPORT_HH
