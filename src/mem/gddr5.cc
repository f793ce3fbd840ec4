#include "mem/gddr5.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "common/units.hh"

namespace texpim {

Gddr5Memory::Gddr5Memory(const Gddr5Params &params)
    : MemorySystem("gddr5"), params_(params)
{
    TEXPIM_ASSERT(params_.channels > 0, "need at least one channel");
    TEXPIM_ASSERT(params_.banksPerChannel > 0, "need at least one bank");

    channel_bw_ = gbpsToBytesPerCycle(params_.totalBandwidthGBs) /
                  double(params_.channels);

    channels_.reserve(params_.channels);
    for (unsigned c = 0; c < params_.channels; ++c) {
        Channel ch;
        ch.banks.assign(params_.banksPerChannel, DramBank(params_.timing));
        channels_.push_back(std::move(ch));
    }

    stats_.counter("reads", "read transactions");
    stats_.counter("writes", "write transactions");
    stats_.counter("row_hits", "row-buffer hits");
    stats_.counter("row_misses", "row-buffer misses (closed row)");
    stats_.counter("row_conflicts", "row-buffer conflicts (wrong row open)");
    stats_.average("bank_wait", "cycles waiting for a busy bank");
    stats_.average("bus_wait", "cycles waiting for the channel bus");
    stats_.average("latency", "end-to-end transaction latency, cycles");
    stats_.histogram("latency_hist", 0.0, 2048.0, 64,
                     "end-to-end transaction latency distribution");
}

void
Gddr5Memory::beginFrame()
{
    for (auto &ch : channels_) {
        ch.bus.reset();
        for (auto &b : ch.banks)
            b.resetTiming();
    }
}

Cycle
Gddr5Memory::access(const MemRequest &req)
{
    TEXPIM_ASSERT(req.bytes > 0, "zero-byte memory access");

    // Fine-grained channel interleave on 256 B granules, XOR-folded
    // with higher address bits so power-of-two strides (texture mip
    // pitches) don't collapse onto one channel.
    constexpr u64 interleave = 256;
    u64 granule = req.addr / interleave;
    u64 fold = granule ^ (granule >> 7) ^ (granule >> 13);
    auto &ch = channels_[fold % params_.channels];

    // Bank bits sit just above the channel bits (fine interleave, XOR
    // decorrelated) so concurrent hot regions spread across banks; the
    // row is the remaining high bits.
    u64 above_channel = granule / params_.channels;
    unsigned bank_idx = unsigned((above_channel ^ (above_channel >> 4)) %
                                 params_.banksPerChannel);
    u64 per_bank = above_channel / params_.banksPerChannel;
    u64 cols_per_row = params_.timing.rowBytes / interleave;
    u64 row = per_bank / cols_per_row;

    RowBufferOutcome outcome;
    Cycle bank_start = req.issue + params_.commandLatency;
    stats_.average("bank_wait")
        .sample(double(std::max(ch.banks[bank_idx].busyUntil(), bank_start) -
                       bank_start));
    Cycle data_ready = ch.banks[bank_idx].access(row, bank_start, outcome);

    // Serialize the data burst over the channel bus (fractional cycles
    // so that sub-cycle bursts do not artificially cap bandwidth).
    double bus_time = double(req.bytes) / channel_bw_;
    double bus_start = ch.bus.reserve(double(data_ready), bus_time);
    stats_.average("bus_wait").sample(bus_start - double(data_ready));
    Cycle done = Cycle(std::ceil(bus_start + bus_time));

    countOffChip(req.cls, req.bytes);
    notifyTraffic(TrafficChannel::OffChip, req.cls, req.addr, req.bytes,
                  int(fold % params_.channels), req.issue);
    ++stats_.counter(req.op == MemOp::Read ? "reads" : "writes");
    switch (outcome) {
      case RowBufferOutcome::Hit:
        ++stats_.counter("row_hits");
        break;
      case RowBufferOutcome::Miss:
        ++stats_.counter("row_misses");
        break;
      case RowBufferOutcome::Conflict:
        ++stats_.counter("row_conflicts");
        break;
    }
    stats_.average("latency").sample(double(done - req.issue));
    stats_.histogram("latency_hist", 0.0, 2048.0, 64)
        .sample(double(done - req.issue));
    stats_.average(std::string("latency_") + trafficClassName(req.cls))
        .sample(double(done - req.issue));
    TEXPIM_TRACE_COMPLETE("dram", "gddr5_access",
                          u32(200 + fold % params_.channels), req.issue,
                          done - req.issue);

    return done;
}

} // namespace texpim
