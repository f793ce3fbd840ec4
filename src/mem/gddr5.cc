#include "mem/gddr5.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/trace_events.hh"
#include "common/units.hh"

namespace texpim {

Gddr5Memory::Gddr5Memory(const Gddr5Params &params)
    : MemorySystem("gddr5"), params_(params),
      reads_(stats_.counter("reads", "read transactions")),
      writes_(stats_.counter("writes", "write transactions")),
      row_hits_(stats_.counter("row_hits", "row-buffer hits")),
      row_misses_(stats_.counter("row_misses",
                                 "row-buffer misses (closed row)")),
      row_conflicts_(stats_.counter(
          "row_conflicts", "row-buffer conflicts (wrong row open)")),
      bank_wait_(stats_.average("bank_wait",
                                "cycles waiting for a busy bank")),
      bus_wait_(stats_.average("bus_wait",
                               "cycles waiting for the channel bus")),
      latency_(stats_.average("latency",
                              "end-to-end transaction latency, cycles")),
      latency_hist_(stats_.histogram(
          "latency_hist", 0.0, 2048.0, 64,
          "end-to-end transaction latency distribution"))
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
}

StatAverage &
Gddr5Memory::classLatency(TrafficClass cls)
{
    StatAverage *&avg = class_latency_[unsigned(cls)];
    if (avg == nullptr) {
        // texpim-lint: allow(R1) registered on first use so a class
        // with no traffic has no snapshot key; one lookup per class
        avg = &stats_.average(
            std::string("latency_") + trafficClassName(cls),
            "end-to-end transaction latency of one traffic class, cycles");
    }
    return *avg;
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
    bank_wait_.sample(
        double(std::max(ch.banks[bank_idx].busyUntil(), bank_start) -
               bank_start));
    Cycle data_ready = ch.banks[bank_idx].access(row, bank_start, outcome);

    // Serialize the data burst over the channel bus (fractional cycles
    // so that sub-cycle bursts do not artificially cap bandwidth).
    double bus_time = double(req.bytes) / channel_bw_;
    double bus_start = ch.bus.reserve(double(data_ready), bus_time);
    bus_wait_.sample(bus_start - double(data_ready));
    Cycle done = Cycle(std::ceil(bus_start + bus_time));

    countOffChip(req.cls, req.bytes);
    notifyTraffic(TrafficChannel::OffChip, req.cls, req.addr, req.bytes,
                  int(fold % params_.channels), req.issue);
    ++(req.op == MemOp::Read ? reads_ : writes_);
    switch (outcome) {
      case RowBufferOutcome::Hit:
        ++row_hits_;
        break;
      case RowBufferOutcome::Miss:
        ++row_misses_;
        break;
      case RowBufferOutcome::Conflict:
        ++row_conflicts_;
        break;
    }
    latency_.sample(double(done - req.issue));
    latency_hist_.sample(double(done - req.issue));
    classLatency(req.cls).sample(double(done - req.issue));
    TEXPIM_TRACE_COMPLETE("dram", "gddr5_access",
                          u32(200 + fold % params_.channels), req.issue,
                          done - req.issue);

    return done;
}

} // namespace texpim
