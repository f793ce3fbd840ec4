/**
 * @file
 * Hybrid Memory Cube model (HMC 2.0 parameters from the paper, §III and
 * Table I): 32 vaults x 8 banks, 1-cycle TSV, full-duplex serial links
 * with 320 GB/s aggregate external bandwidth, and 512 GB/s internal
 * bandwidth through the vault/TSV structure.
 *
 * Two access paths are exposed:
 *  - host accesses cross the external links (request packet out,
 *    response packet back), the crossbar switch and a vault;
 *  - internal accesses, issued by logic-layer PIM units, skip the links
 *    entirely and only pay switch + TSV + bank time. This difference is
 *    exactly what the paper's TFIM designs exploit.
 */

#ifndef TEXPIM_MEM_HMC_HH
#define TEXPIM_MEM_HMC_HH

#include <vector>

#include "common/fault.hh"
#include "mem/dram_bank.hh"
#include "mem/gap_resource.hh"
#include "mem/memory_system.hh"

namespace texpim {

struct HmcParams
{
    unsigned vaults = 32;         //!< Table I, per cube
    unsigned banksPerVault = 8;   //!< Table I
    double externalBandwidthGBs = 320.0; //!< HMC 2.0 peak external, per cube
    double internalBandwidthGBs = 512.0; //!< HMC 2.0 peak internal, per cube

    /**
     * Cubes attached to the GPU (§V-E discusses the multi-HMC case:
     * a parent-texel fetch package maps to a single HMC because the
     * parents and their children live in the same texture). Addresses
     * interleave across cubes on 1 MiB granules, so a mip region and
     * its neighborhood stay within one cube; packages route to the
     * cube of their first parent texel.
     */
    unsigned cubes = 1;
    Cycle linkLatency = 8;    //!< serdes + flight, each direction
    Cycle switchLatency = 2;  //!< logic-layer crossbar
    Cycle tsvLatency = 1;     //!< Table I, from CACTI-3DD
    Cycle vaultCommandLatency = 30; //!< vault controller queue + command
    u64 requestPacketBytes = 16;  //!< read/write request header+tail
    u64 responseHeaderBytes = 16; //!< response packet header+tail
    DramTiming timing{};

    /**
     * HMC-2.0-style link-retry protocol (only exercised under fault
     * injection — see FaultParams). A packet that takes a CRC error is
     * replayed from the link's retry buffer after `retryLatency`
     * cycles of detection + turnaround, with exponential backoff on
     * repeated failures; the retry buffer holds `retryBufferPackets`
     * unacknowledged packets and stalls the link (token flow control)
     * when full. After `maxReplays` failed replays of one packet the
     * link gives up retrying and forces the packet through (counted as
     * `retry_aborts` — the simulator's data path is functional, so
     * "poisoned" delivery only matters for the statistics).
     */
    unsigned retryBufferPackets = 8;
    Cycle retryLatency = 16;
    unsigned maxReplays = 16;

    FaultParams fault{};
};

class HmcMemory : public MemorySystem
{
  public:
    explicit HmcMemory(const HmcParams &params);

    /** Host-side access over the external links. */
    Cycle access(const MemRequest &req) override;

    void beginFrame() override;

    /**
     * Access issued by a PIM unit on the logic layer: pays switch, TSV
     * and bank time but never touches the external links.
     */
    Cycle internalAccess(const MemRequest &req);

    /**
     * Ship an opaque package of `bytes` from host to the logic layer
     * (PIM offload). Charged on the transmit link of the cube owning
     * `route_addr` (§V-E: a package maps to a single HMC) and counted
     * as off-chip package traffic.
     * @return arrival cycle at that cube's logic layer
     */
    Cycle hostToDevice(u64 bytes, TrafficClass cls, Cycle now,
                       Addr route_addr = 0);

    /** Ship a package from the logic layer back to the host. */
    Cycle deviceToHost(u64 bytes, TrafficClass cls, Cycle now,
                       Addr route_addr = 0);

    /**
     * Observed link retry rate (retransmissions / packets) of the cube
     * owning `addr`, cumulative over the run; 0 until the cube has
     * carried `min_packets` packets (too little evidence to act on).
     * This is the signal the PIM offload paths use to degrade to
     * host-side filtering when a cube's links misbehave.
     */
    double observedLinkRetryRate(Addr addr, u64 min_packets = 0) const;

    /** Internal (in-cube) traffic meter, for reports. */
    const TrafficMeter &internalTraffic() const { return internal_; }

    /**
     * Global vault index of an address: cube * vaults + in-cube vault,
     * using the same interleave folds the timing path routes with.
     * This is the lane attribution observations report (traffic_sink.hh)
     * and the index of the per-vault utilization timelines.
     */
    unsigned globalVaultOf(Addr addr) const;

    double
    peakOffChipBytesPerCycle() const override
    {
        // Full-duplex: half the aggregate each direction, per cube.
        return (tx_bw_ + rx_bw_) * double(params_.cubes);
    }

    const HmcParams &params() const { return params_; }

    void resetStats() override;

  private:
    struct Vault
    {
        std::vector<DramBank> banks;
        GapResource bus; //!< TSV bundle occupancy
    };

    /** One direction of a cube's serial-link bundle. */
    struct Link
    {
        GapResource res;
        FaultInjector inj; //!< per-packet CRC-error site
        /** Retry buffer: per-slot retransmission-complete times (ring).
         *  A full buffer stalls the next retry — token flow control. */
        std::vector<double> retrySlots;
        size_t head = 0;
    };

    struct Cube
    {
        std::vector<Vault> vaults;
        Link tx;
        Link rx;
        GapResource internalAgg; //!< cube-wide internal-bandwidth cap
        FaultInjector vaultInj;  //!< transient vault/ECC error site
        u64 linkPackets = 0;     //!< packets carried, both directions
        u64 linkRetries = 0;     //!< retransmissions, both directions
    };

    /** Which cube owns an address (1 MiB interleave). */
    unsigned cubeOf(Addr addr) const;

    /** In-cube vault index (256 B interleave, XOR-folded). */
    unsigned vaultIndexOf(Addr addr) const;

    /** Route an access through switch + vault; returns data-ready cycle. */
    Cycle vaultAccess(Addr addr, u64 bytes, Cycle start,
                      RowBufferOutcome &outcome);

    /**
     * Transmit one packet on `link`, including any CRC-error replays
     * the link's fault site injects; returns the serialization-done
     * time of the (last) successful transmission.
     */
    double sendPacket(Cube &cube, Link &link, double now, u64 bytes,
                      double bytes_per_cyc);

    HmcParams params_;
    double tx_bw_; //!< bytes per cycle host->cube
    double rx_bw_; //!< bytes per cycle cube->host
    double internal_bw_; //!< aggregate bytes per cycle inside one cube
    double vault_bw_;    //!< bytes per cycle per vault (TSV bundle)

    std::vector<Cube> cubes_;
    TrafficMeter internal_;

    StatCounter &reads_;
    StatCounter &writes_;
    StatCounter &row_hits_;
    StatCounter &row_misses_;
    StatCounter &row_conflicts_;
    StatCounter &internal_reads_;
    StatCounter &internal_writes_;
    StatCounter &packages_to_device_;
    StatCounter &packages_to_host_;
    StatAverage &latency_;
    StatAverage &internal_latency_;
    StatHistogram &latency_hist_;
    StatCounter &crc_errors_;
    StatCounter &link_retries_;
    StatCounter &retry_buffer_stalls_;
    StatCounter &retry_aborts_;
    StatCounter &vault_retries_;
};

} // namespace texpim

#endif // TEXPIM_MEM_HMC_HH
