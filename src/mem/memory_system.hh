/**
 * @file
 * Abstract memory-system interface shared by the GDDR5 and HMC models.
 *
 * The timing model is resource-reservation based: an access arriving at
 * cycle `now` returns the cycle its data is available at the requester,
 * and advances the internal bus / bank reservations it used. Requests
 * are expected to arrive in approximately non-decreasing time order
 * within a frame phase (the renderer guarantees this), which keeps the
 * reservations meaningful.
 */

#ifndef TEXPIM_MEM_MEMORY_SYSTEM_HH
#define TEXPIM_MEM_MEMORY_SYSTEM_HH

#include <string>

#include "common/stats.hh"
#include "mem/request.hh"
#include "mem/traffic_sink.hh"

namespace texpim {

class MemorySystem
{
  public:
    explicit MemorySystem(std::string name) : stats_(std::move(name)) {}
    virtual ~MemorySystem() = default;

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Perform one transaction.
     * @return the cycle the transaction completes at the requester
     *         (data returned for reads, globally visible for writes).
     */
    // texpim-lint: replay-root per-transaction timing entry; every
    // override updates stats through references held since construction
    virtual Cycle access(const MemRequest &req) = 0;

    /** access() shorthands for one read / one write. */
    Cycle
    read(Addr addr, u64 bytes, TrafficClass cls, Cycle now)
    {
        return access({addr, bytes, MemOp::Read, cls, now});
    }

    Cycle
    write(Addr addr, u64 bytes, TrafficClass cls, Cycle now)
    {
        return access({addr, bytes, MemOp::Write, cls, now});
    }

    /**
     * Start a new frame: rewind the timing reservations to cycle 0
     * (each frame's clock starts fresh) while keeping functional state
     * such as open rows. Traffic meters are reset separately via
     * resetStats() so callers control per-frame accounting.
     */
    virtual void beginFrame() = 0;

    /** Off-chip traffic (between host GPU and the memory device). */
    const TrafficMeter &offChipTraffic() const { return off_chip_; }

    /**
     * Install (or clear, with nullptr) the traffic-observation sink.
     * The model reports every metered byte to the sink from the same
     * call sites that charge the meters — see traffic_sink.hh for the
     * accounting-identity contract. The sink must outlive the model
     * or be cleared first.
     */
    void setTrafficSink(TrafficSink *sink) { sink_ = sink; }

    /** Peak off-chip bandwidth in bytes per core cycle (for reports). */
    virtual double peakOffChipBytesPerCycle() const = 0;

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    virtual void resetStats() { off_chip_.reset(); stats_.resetAll(); }

  protected:
    void
    countOffChip(TrafficClass cls, u64 bytes)
    {
        off_chip_.add(cls, bytes);
    }

    /** Report a metered transfer to the sink, if one is installed. */
    void
    notifyTraffic(TrafficChannel channel, TrafficClass cls, Addr addr,
                  u64 bytes, int lane, Cycle at)
    {
        if (sink_ != nullptr)
            sink_->onTraffic({channel, cls, addr, bytes, lane, at});
    }

    StatGroup stats_;

  private:
    TrafficMeter off_chip_;
    TrafficSink *sink_ = nullptr;
};

} // namespace texpim

#endif // TEXPIM_MEM_MEMORY_SYSTEM_HH
