/**
 * @file
 * GDDR5 off-chip memory model: N channels, each with its own data bus
 * and a set of banks; 128 GB/s aggregate peak bandwidth as in Table I.
 */

#ifndef TEXPIM_MEM_GDDR5_HH
#define TEXPIM_MEM_GDDR5_HH

#include <array>
#include <vector>

#include "mem/dram_bank.hh"
#include "mem/gap_resource.hh"
#include "mem/memory_system.hh"

namespace texpim {

/** Configuration for the GDDR5 model. */
struct Gddr5Params
{
    unsigned channels = 4; //!< 256-bit bus as 4 x 64-bit channels
    unsigned banksPerChannel = 16;
    double totalBandwidthGBs = 128.0; //!< Table I: 128 GB/s
    /** On-chip interconnect + controller queue + command path, round
     *  trip; the bank/bus model below adds the DRAM core part, and
     *  queueing under load adds the rest of the 300-600 cycles GPUs of
     *  this class actually see. */
    Cycle commandLatency = 100;
    DramTiming timing{};
};

class Gddr5Memory : public MemorySystem
{
  public:
    explicit Gddr5Memory(const Gddr5Params &params);

    Cycle access(const MemRequest &req) override;

    void beginFrame() override;

    double
    peakOffChipBytesPerCycle() const override
    {
        return channel_bw_ * double(params_.channels);
    }

    const Gddr5Params &params() const { return params_; }

  private:
    struct Channel
    {
        std::vector<DramBank> banks;
        GapResource bus; //!< order-tolerant data-bus occupancy
    };

    /** The `latency_<class>` average of `cls`, registered on its
     *  first access so a class with no traffic exports no key. */
    StatAverage &classLatency(TrafficClass cls);

    Gddr5Params params_;
    double channel_bw_; //!< bytes per core cycle per channel
    std::vector<Channel> channels_;

    StatCounter &reads_;
    StatCounter &writes_;
    StatCounter &row_hits_;
    StatCounter &row_misses_;
    StatCounter &row_conflicts_;
    StatAverage &bank_wait_;
    StatAverage &bus_wait_;
    StatAverage &latency_;
    StatHistogram &latency_hist_;
    std::array<StatAverage *, kNumTrafficClasses> class_latency_{};
};

} // namespace texpim

#endif // TEXPIM_MEM_GDDR5_HH
