#include "system/system.hh"

#include "proto/bulksc/bulksc.hh"
#include "proto/scalablebulk/dir_ctrl.hh"
#include "proto/seq/seq.hh"
#include "proto/tcc/tcc.hh"

namespace sbulk
{

const char*
protocolName(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::ScalableBulk: return "ScalableBulk";
      case ProtocolKind::TCC: return "TCC";
      case ProtocolKind::SEQ: return "SEQ";
      case ProtocolKind::BulkSC: return "BulkSC";
    }
    return "?";
}

System::System(SystemConfig cfg,
               std::vector<std::unique_ptr<ThreadStream>> streams)
    : _cfg(cfg), _pages(cfg.numProcs),
      _leaderPolicy(cfg.numProcs, cfg.proto.leaderRotationInterval),
      _streams(std::move(streams))
{
    SBULK_ASSERT(_cfg.numProcs > 0 && _cfg.numProcs <= 4096,
                 "1..4096 processors supported");
    SBULK_ASSERT(_streams.size() == _cfg.numProcs,
                 "need one stream per core");
    SBULK_ASSERT(_cfg.shards >= 1 && _cfg.shards <= _cfg.numProcs,
                 "--shards must be in 1..numProcs (%u over %u tiles)",
                 _cfg.shards, _cfg.numProcs);
    SBULK_ASSERT(!(_cfg.shards > 1 && _cfg.validate),
                 "the consistency oracle is serial-only; use --shards 1");

    if (_cfg.shards > 1) {
        if (_cfg.shardMap.empty()) {
            _plan =
                std::make_unique<ShardPlan>(_cfg.numProcs, _cfg.shards);
        } else {
            SBULK_ASSERT(_cfg.shardMap.size() == _cfg.numProcs,
                         "shard map covers %zu of %u tiles",
                         _cfg.shardMap.size(), _cfg.numProcs);
            _plan = std::make_unique<ShardPlan>(_cfg.shardMap,
                                                _cfg.shards);
        }
        _tileSeq.assign(_cfg.numProcs, 0);
        _shardChan = std::make_unique<ShardChannels>(_cfg.shards);
        for (std::uint32_t s = 0; s < _cfg.shards; ++s) {
            auto q = std::make_unique<EventQueue>();
            q->enableKeyedOrder(&_tileSeq);
            _shardQs.push_back(std::move(q));
            auto m = std::make_unique<CommitMetrics>();
            m->journalTo(_shardQs.back().get());
            _shardMetrics.push_back(std::move(m));
        }
        // First-touch homing is an order-dependent shared insert; the
        // parallel kernel homes pages by interleaving instead.
        _pages.setInterleaved(true);
    } else if (_cfg.interleavedPages) {
        _pages.setInterleaved(true);
    }

    if (_cfg.directNetwork) {
        _net = std::make_unique<DirectNetwork>(_eq, _cfg.numProcs,
                                               _cfg.directLatency);
    } else {
        _net = std::make_unique<TorusNetwork>(_eq, _cfg.numProcs,
                                              _cfg.torus);
    }
    if (_plan) {
        std::vector<EventQueue*> qs;
        for (auto& q : _shardQs)
            qs.push_back(q.get());
        _net->configureShards(_plan.get(), std::move(qs),
                              _shardChan.get());
    }

    if (_cfg.validate)
        _checker = std::make_unique<ConsistencyChecker>();

    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        // Construction-time schedules (none today, but components are
        // free to arm timers in their constructors) originate at tile n.
        if (_plan)
            eqOf(n).setExecTile(n);
        _caches.push_back(
            std::make_unique<CacheHierarchy>(n, *_net, _pages, _cfg.mem));
        _dirs.push_back(std::make_unique<Directory>(n, *_net, _cfg.mem));
        CoreConfig core_cfg = _cfg.core;
        // Spread thread start-up across one chunk period so commit
        // arrivals do not synchronize (threads of a real program never
        // leave the barrier on the same cycle).
        core_cfg.startDelay =
            Tick(n) * (core_cfg.chunkInstrs / _cfg.numProcs + 1);
        _cores.push_back(
            std::make_unique<Core>(n, eqOf(n), *_caches[n], core_cfg));
        _cores[n]->setStream(_streams[n].get());
        _cores[n]->setChecker(_checker.get());
        _cores[n]->setObserver(_cfg.observer);
    }

    buildProtocol();

    // Wire the tile demultiplexers: mem-kind messages go to the memory
    // system, protocol kinds to the protocol controllers.
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        _net->registerHandler(n, Port::Proc, [this, n](MessagePtr msg) {
            if (msg->kind < kProtoKindBase)
                _caches[n]->handleMessage(std::move(msg));
            else
                _procProtos[n]->handleMessage(std::move(msg));
        });
        _net->registerHandler(n, Port::Dir, [this, n](MessagePtr msg) {
            if (msg->kind < kProtoKindBase)
                _dirs[n]->handleMessage(std::move(msg));
            else
                _dirProtos[n]->handleMessage(std::move(msg));
        });
        if (_agent) {
            _net->registerHandler(n, Port::Agent, [this](MessagePtr msg) {
                _agent->handleMessage(std::move(msg));
            });
        }
    }
}

System::~System() = default;

EventQueue&
System::eqOf(NodeId n)
{
    return _plan ? *_shardQs[_plan->shardOf(n)] : _eq;
}

CommitMetrics&
System::metricsOf(NodeId n)
{
    return _plan ? *_shardMetrics[_plan->shardOf(n)] : _metrics;
}

void
System::buildProtocol()
{
    // One context per tile: in sharded mode each tile's controllers
    // schedule on (and journal metrics through) the queue of the shard
    // that owns the tile. Serial mode yields numProcs copies of the same
    // {_eq, _metrics} wiring the single shared context used to provide.
    auto ctxFor = [this](NodeId n) {
        return ProtoContext{eqOf(n), *_net, metricsOf(n), _cfg.proto,
                            _cfg.observer};
    };

    switch (_cfg.protocol) {
      case ProtocolKind::ScalableBulk:
        for (NodeId n = 0; n < _cfg.numProcs; ++n) {
            auto proc = std::make_unique<sb::SbProcCtrl>(n, ctxFor(n),
                                                         _leaderPolicy);
            proc->setCore(_cores[n].get());
            _cores[n]->setProtocol(proc.get());
            _procProtos.push_back(std::move(proc));
            _dirProtos.push_back(
                std::make_unique<sb::SbDirCtrl>(n, ctxFor(n), *_dirs[n]));
        }
        break;
      case ProtocolKind::BulkSC: {
        // The arbiter sits at the center of the die (Table 3).
        const NodeId agent_node = _cfg.numProcs / 2;
        _agent = std::make_unique<bk::BkArbiter>(agent_node,
                                                 ctxFor(agent_node));
        for (NodeId n = 0; n < _cfg.numProcs; ++n) {
            auto proc = std::make_unique<bk::BkProcCtrl>(n, ctxFor(n),
                                                         agent_node);
            proc->setCore(_cores[n].get());
            _cores[n]->setProtocol(proc.get());
            _procProtos.push_back(std::move(proc));
            _dirProtos.push_back(std::make_unique<bk::BkDirCtrl>(
                n, ctxFor(n), *_dirs[n], agent_node));
        }
        break;
      }
      case ProtocolKind::TCC: {
        // The TID vendor is the centralized agent (Section 2.1).
        const NodeId agent_node = _cfg.numProcs / 2;
        _agent = std::make_unique<tcc::TccTidVendor>(agent_node,
                                                     ctxFor(agent_node));
        for (NodeId n = 0; n < _cfg.numProcs; ++n) {
            auto proc = std::make_unique<tcc::TccProcCtrl>(
                n, ctxFor(n), agent_node, _cfg.numProcs);
            proc->setCore(_cores[n].get());
            _cores[n]->setProtocol(proc.get());
            _procProtos.push_back(std::move(proc));
            _dirProtos.push_back(
                std::make_unique<tcc::TccDirCtrl>(n, ctxFor(n), *_dirs[n]));
        }
        break;
      }
      case ProtocolKind::SEQ:
        for (NodeId n = 0; n < _cfg.numProcs; ++n) {
            auto proc = std::make_unique<sq::SeqProcCtrl>(n, ctxFor(n));
            proc->setCore(_cores[n].get());
            _cores[n]->setProtocol(proc.get());
            _procProtos.push_back(std::move(proc));
            _dirProtos.push_back(
                std::make_unique<sq::SeqDirCtrl>(n, ctxFor(n), *_dirs[n]));
        }
        break;
    }
}

bool
System::allCoresDone() const
{
    while (_doneCorePrefix < _cores.size() &&
           _cores[_doneCorePrefix]->done())
        ++_doneCorePrefix;
    return _doneCorePrefix == _cores.size();
}

bool
System::protocolQuiescent() const
{
    for (const auto& dir : _dirProtos)
        if (!dir->quiescent())
            return false;
    return !_agent || _agent->quiescent();
}

Tick
System::run(Tick limit)
{
    if (_plan)
        return runSharded(limit);

    for (auto& core : _cores)
        core->start();

    while (!allCoresDone()) {
        if (_eq.now() >= limit)
            break;
        if (!_eq.step()) {
            SBULK_PANIC("deadlock: event queue drained at tick %llu with "
                        "unfinished cores",
                        (unsigned long long)_eq.now());
        }
    }
    return _eq.now();
}

Tick
System::runSharded(Tick limit)
{
    SBULK_ASSERT(!_shardsRan, "a sharded System runs exactly once");
    _shardsRan = true;

    // Initial events originate at their core's tile so canonical keys are
    // shard-count-invariant from the very first schedule.
    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        eqOf(n).setExecTile(n);
        _cores[n]->start();
    }

    std::vector<EventQueue*> qs;
    for (auto& q : _shardQs)
        qs.push_back(q.get());
    auto done_cores = [this](std::uint32_t s) {
        std::uint32_t done = 0;
        for (std::uint32_t t : _plan->tilesOf(s))
            done += _cores[t]->done() ? 1 : 0;
        return done;
    };
    ShardEngine engine(*_plan, std::move(qs), *_shardChan,
                       _net->lookaheadMatrix(*_plan), _cfg.numProcs,
                       done_cores);
    const Tick end = engine.run(limit);

    _engineStats = engine.stats();
    _engineWallSec = engine.wallSeconds();

    // Fold the per-shard statistics into the aggregate views the serial
    // accessors expose: traffic counters merge additively, metric
    // counters/histograms likewise, and the journaled gauge ops replay in
    // canonical order to reproduce the sample sequence.
    _net->foldShardTraffic();
    std::vector<CommitMetrics::JournalRec> journal;
    for (auto& m : _shardMetrics) {
        _metrics.mergeCounters(*m);
        const auto recs = m->takeJournal();
        journal.insert(journal.end(), recs.begin(), recs.end());
    }
    _metrics.replayJournal(std::move(journal));
    return end;
}

System::Breakdown
System::breakdown() const
{
    Breakdown b;
    double finish_sum = 0;
    for (const auto& core : _cores) {
        const auto& s = core->stats();
        b.useful += double(s.usefulCycles.value());
        b.cacheMiss += double(s.missStallCycles.value());
        b.commit += double(s.commitStallCycles.value());
        b.squash += double(s.squashWasteCycles.value());
        finish_sum += double(s.finishTick);
        b.makespan = std::max(b.makespan, s.finishTick);
    }
    b.meanFinish = finish_sum / double(_cores.size());
    return b;
}

void
System::recordStats(StatSet& set) const
{
    const CommitMetrics& m = _metrics;
    set.record("commits", double(m.commits.value()));
    set.record("commitFailures", double(m.commitFailures.value()));
    set.record("commitRetries", double(m.commitRetries.value()));
    set.record("watchdogFires", double(m.watchdogFires.value()));
    set.record("retryEscalations", double(m.retryEscalations.value()));
    set.record("squashesTrueConflict",
               double(m.squashesTrueConflict.value()));
    set.record("squashesAliasing", double(m.squashesAliasing.value()));
    set.record("commitRecalls", double(m.commitRecalls.value()));
    set.record("starvationReservations",
               double(m.starvationReservations.value()));
    set.record("commitLatency", m.commitLatency);
    set.record("dirsPerCommit", m.dirsPerCommit);
    set.record("writeDirsPerCommit", m.writeDirsPerCommit);
    set.record("bottleneckRatio", m.bottleneckRatio);
    set.record("chunkQueueLength", m.chunkQueueLength);

    const TrafficStats& t = _net->traffic();
    for (std::size_t c = 0; c < kNumMsgClasses; ++c) {
        const MsgClass cls = MsgClass(c);
        set.record(std::string("net.") + msgClassName(cls) + ".messages",
                   double(t.messages(cls)));
        set.record(std::string("net.") + msgClassName(cls) + ".bytes",
                   double(t.bytes(cls)));
    }

    for (NodeId n = 0; n < _cfg.numProcs; ++n) {
        const std::string core = "core" + std::to_string(n) + ".";
        const auto& cs = _cores[n]->stats();
        set.record(core + "useful", double(cs.usefulCycles.value()));
        set.record(core + "missStall", double(cs.missStallCycles.value()));
        set.record(core + "commitStall",
                   double(cs.commitStallCycles.value()));
        set.record(core + "squashWaste",
                   double(cs.squashWasteCycles.value()));
        set.record(core + "chunksCommitted",
                   double(cs.chunksCommitted.value()));
        set.record(core + "chunksSquashed",
                   double(cs.chunksSquashed.value()));

        const std::string dir = "dir" + std::to_string(n) + ".";
        const auto& ds = _dirs[n]->stats();
        set.record(dir + "reads", double(ds.reads.value()));
        set.record(dir + "memReads", double(ds.memReads.value()));
        set.record(dir + "remoteShReads",
                   double(ds.remoteShReads.value()));
        set.record(dir + "remoteDirtyReads",
                   double(ds.remoteDirtyReads.value()));
        set.record(dir + "readNacks", double(ds.readNacks.value()));

        const std::string hier = "l2_" + std::to_string(n) + ".";
        const auto& hs = _caches[n]->stats();
        set.record(hier + "loads", double(hs.loads.value()));
        set.record(hier + "l1Hits", double(hs.l1Hits.value()));
        set.record(hier + "misses", double(hs.misses.value()));
    }
}

} // namespace sbulk
