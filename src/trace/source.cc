#include "trace/source.hh"

#include <istream>

#include "sim/logging.hh"

namespace sbulk::atrace
{

/** One core's view of the shared reader. */
class TraceReplay::CoreStream : public ThreadStream
{
  public:
    CoreStream(TraceReplay& replay, std::uint16_t core)
        : _replay(replay), _core(core)
    {}

    MemOp next() override { return _replay.pull(_core); }

  private:
    TraceReplay& _replay;
    std::uint16_t _core;
};

TraceReplay::TraceReplay() = default;
TraceReplay::~TraceReplay() = default;

bool
TraceReplay::open(std::istream& in, std::string* err)
{
    if (!_reader.open(in, err))
        return false;
    const std::uint32_t cores = _reader.header().numCores;
    _queues.assign(cores, {});
    _coreSeen.assign(cores, 0);
    _streams.clear();
    for (std::uint32_t c = 0; c < cores; ++c)
        _streams.push_back(std::make_unique<CoreStream>(*this, c));
    return true;
}

ThreadStream*
TraceReplay::streamFor(NodeId core)
{
    SBULK_ASSERT(core < _streams.size(),
                 "trace replay has no core %u (trace drives %zu)", core,
                 _streams.size());
    return _streams[core].get();
}

MemOp
TraceReplay::pull(std::uint16_t core)
{
    const std::lock_guard<std::mutex> lock(_mu);
    if (_queues[core].empty())
        fill(core);
    MemOp op = _queues[core].front();
    _queues[core].pop_front();
    return op;
}

void
TraceReplay::fill(std::uint16_t core)
{
    std::string err;
    TraceRecord rec;
    for (;;) {
        if (_reader.next(rec, &err)) {
            _coreSeen[rec.core] = 1;
            _queues[rec.core].push_back(MemOp{rec.gap, rec.isWrite,
                                              rec.addr, rec.tenant,
                                              rec.endChunk});
            if (rec.core == core)
                return;
            continue;
        }
        if (!err.empty())
            SBULK_FATAL("trace replay: %s", err.c_str());
        // Clean end of trace: wrap around so the stream stays endless.
        if (!_coreSeen[core]) {
            SBULK_FATAL("trace replay: trace has no records for core %u "
                        "(declared %u cores); regenerate with a matching "
                        "core count",
                        core, _reader.header().numCores);
        }
        if (!_reader.rewind(&err))
            SBULK_FATAL("trace replay: %s", err.c_str());
        ++_wraps;
    }
}

} // namespace sbulk::atrace
