#include "mem/hmc.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/prof/profiler.hh"
#include "common/trace_events.hh"
#include "common/units.hh"

namespace texpim {

namespace {

/** Reserve `bytes` on an order-tolerant bandwidth resource; returns
 *  the finish time. */
double
reserveBandwidth(GapResource &res, double start, u64 bytes,
                 double bytes_per_cyc)
{
    double service = double(bytes) / bytes_per_cyc;
    return res.reserve(start, service) + service;
}

} // namespace

HmcMemory::HmcMemory(const HmcParams &params)
    : MemorySystem("hmc"), params_(params),
      reads_(stats_.counter("reads", "host read transactions")),
      writes_(stats_.counter("writes", "host write transactions")),
      row_hits_(stats_.counter("row_hits", "row-buffer hits")),
      row_misses_(stats_.counter("row_misses",
                                 "row-buffer misses (closed row)")),
      row_conflicts_(stats_.counter(
          "row_conflicts", "row-buffer conflicts (wrong row open)")),
      internal_reads_(stats_.counter(
          "internal_reads",
          "logic-layer (PIM) reads that never cross the links")),
      internal_writes_(stats_.counter("internal_writes",
                                      "logic-layer (PIM) writes")),
      packages_to_device_(stats_.counter(
          "packages_to_device",
          "PIM offload packages sent over the transmit link")),
      packages_to_host_(stats_.counter(
          "packages_to_host", "PIM response packages over the receive link")),
      latency_(stats_.average("latency",
                              "host transaction latency, cycles")),
      internal_latency_(stats_.average(
          "internal_latency", "logic-layer access latency, cycles")),
      latency_hist_(stats_.histogram(
          "latency_hist", 0.0, 2048.0, 64,
          "host transaction latency distribution")),
      crc_errors_(stats_.counter(
          "crc_errors", "link packet transmissions that took a CRC error")),
      link_retries_(stats_.counter(
          "link_retries",
          "packet retransmissions through the link-retry buffer")),
      retry_buffer_stalls_(stats_.counter(
          "retry_buffer_stalls",
          "retransmissions stalled on a full retry buffer")),
      retry_aborts_(stats_.counter(
          "retry_aborts",
          "packets forced through after HmcParams::maxReplays failed "
          "replays")),
      vault_retries_(stats_.counter(
          "vault_retries", "vault accesses re-issued after a transient error"))
{
    TEXPIM_ASSERT(params_.vaults > 0, "need at least one vault");
    TEXPIM_ASSERT(params_.banksPerVault > 0, "need at least one bank");
    TEXPIM_ASSERT(params_.cubes > 0, "need at least one cube");

    // Full-duplex links: half the aggregate external bandwidth each way.
    double ext = gbpsToBytesPerCycle(params_.externalBandwidthGBs);
    tx_bw_ = ext / 2.0;
    rx_bw_ = ext / 2.0;
    internal_bw_ = gbpsToBytesPerCycle(params_.internalBandwidthGBs);
    vault_bw_ = internal_bw_ / double(params_.vaults);

    TEXPIM_ASSERT(params_.retryBufferPackets > 0,
                  "need at least one retry-buffer slot");
    cubes_.resize(params_.cubes);
    for (unsigned c = 0; c < params_.cubes; ++c) {
        Cube &cube = cubes_[c];
        cube.vaults.reserve(params_.vaults);
        for (unsigned v = 0; v < params_.vaults; ++v) {
            Vault vault;
            vault.banks.assign(params_.banksPerVault,
                               DramBank(params_.timing));
            cube.vaults.push_back(std::move(vault));
        }
        // Fault sites, one per link direction and one for the vault
        // path; each draws an independent stream off the global seed.
        const FaultParams &f = params_.fault;
        std::string prefix = "hmc" + std::to_string(c);
        cube.tx.inj = FaultInjector(prefix + ".link_tx", f.linkBer,
                                    f.burstLen, f.seed);
        cube.rx.inj = FaultInjector(prefix + ".link_rx", f.linkBer,
                                    f.burstLen, f.seed);
        cube.vaultInj = FaultInjector(prefix + ".vault", f.vaultBer,
                                      f.burstLen, f.seed);
        cube.tx.retrySlots.assign(params_.retryBufferPackets, 0.0);
        cube.rx.retrySlots.assign(params_.retryBufferPackets, 0.0);
    }
}

unsigned
HmcMemory::cubeOf(Addr addr) const
{
    if (params_.cubes == 1)
        return 0;
    u64 granule = addr >> 20; // 1 MiB cube interleave
    u64 fold = granule ^ (granule >> 5);
    return unsigned(fold % params_.cubes);
}

unsigned
HmcMemory::vaultIndexOf(Addr addr) const
{
    // 256 B vault interleave with the same XOR fold as the GDDR5
    // channel map (power-of-two stride robustness).
    constexpr u64 interleave = 256;
    u64 granule = addr / interleave;
    u64 fold = granule ^ (granule >> 7) ^ (granule >> 13);
    return unsigned(fold % params_.vaults);
}

unsigned
HmcMemory::globalVaultOf(Addr addr) const
{
    return cubeOf(addr) * params_.vaults + vaultIndexOf(addr);
}

double
HmcMemory::sendPacket(Cube &cube, Link &link, double now, u64 bytes,
                      double bytes_per_cyc)
{
    double done = reserveBandwidth(link.res, now, bytes, bytes_per_cyc);
    ++cube.linkPackets;
    if (!link.inj.enabled()) {
        // Faults off: the whole fault path is the check above. The
        // zone gets the link time the requester is charged: callers
        // round the serialisation end up to a whole cycle.
        TEXPIM_PROF_CYCLES(prof::kZoneHmcLink,
                           Cycle(std::ceil(done)) - Cycle(now));
        return done;
    }
    unsigned attempt = 0;
    while (link.inj.fire()) {
        ++attempt;
        ++crc_errors_;
        TEXPIM_TRACE_INSTANT("fault", "crc_error", 310, Cycle(done));
        if (attempt > params_.maxReplays) {
            // The link layer gives up replaying and forces the packet
            // through; the data path is functional fiction, so a
            // poisoned delivery only matters for the statistics.
            ++retry_aborts_;
            break;
        }
        ++cube.linkRetries;
        ++link_retries_;
        // Replay from the retry buffer: error detection + turnaround,
        // doubling (exponential backoff) on repeated failures.
        double backoff = double(params_.retryLatency) *
                         double(1u << std::min(attempt - 1, 6u));
        double ready = done + backoff;
        // The replayed packet needs a retry-buffer slot; when all
        // slots hold unacknowledged packets, token flow control stalls
        // the link until the oldest retires.
        double slot_free = link.retrySlots[link.head];
        if (slot_free > ready) {
            ++retry_buffer_stalls_;
            ready = slot_free;
        }
        done = reserveBandwidth(link.res, ready, bytes, bytes_per_cyc);
        link.retrySlots[link.head] = done;
        link.head = (link.head + 1) % link.retrySlots.size();
    }
    TEXPIM_PROF_CYCLES(prof::kZoneHmcLink,
                       Cycle(std::ceil(done)) - Cycle(now));
    return done;
}

double
HmcMemory::observedLinkRetryRate(Addr addr, u64 min_packets) const
{
    const Cube &cube = cubes_[cubeOf(addr)];
    if (cube.linkPackets == 0 || cube.linkPackets < min_packets)
        return 0.0;
    return double(cube.linkRetries) / double(cube.linkPackets);
}

Cycle
HmcMemory::vaultAccess(Addr addr, u64 bytes, Cycle start,
                       RowBufferOutcome &outcome)
{
    Cube &cube = cubes_[cubeOf(addr)];

    unsigned vidx = vaultIndexOf(addr);
    auto &vault = cube.vaults[vidx];

    // Same fine bank interleave as the GDDR5 map (see gddr5.cc).
    constexpr u64 interleave = 256;
    u64 granule = addr / interleave;
    u64 above = granule / params_.vaults;
    unsigned bank_idx =
        unsigned((above ^ (above >> 3)) % params_.banksPerVault);
    u64 per_bank = above / params_.banksPerVault;
    u64 cols_per_row = params_.timing.rowBytes / interleave;
    u64 row = per_bank / cols_per_row;

    Cycle bank_start =
        start + params_.switchLatency + params_.vaultCommandLatency +
        params_.tsvLatency;
    Cycle data_ready = vault.banks[bank_idx].access(row, bank_start, outcome);

    if (cube.vaultInj.fire()) {
        // Transient vault error (ECC detection on the returned burst):
        // the vault controller re-issues the access. The replay goes
        // back through the command path and the same bank; the
        // original row-buffer outcome stays the one reported (the
        // replay hits the row the first attempt opened).
        ++vault_retries_;
        TEXPIM_TRACE_INSTANT("fault", "vault_error", 200 + vidx,
                             data_ready);
        RowBufferOutcome replay;
        data_ready = vault.banks[bank_idx].access(
            row, data_ready + params_.vaultCommandLatency, replay);
    }

    // TSV bundle (vault data bus) serialization, then the aggregate
    // internal-bandwidth ceiling of the cube.
    double tsv_done =
        reserveBandwidth(vault.bus, double(data_ready), bytes, vault_bw_);
    double agg_done =
        reserveBandwidth(cube.internalAgg, tsv_done, bytes, internal_bw_);

    Cycle done = Cycle(std::ceil(agg_done)) + params_.tsvLatency +
                 params_.switchLatency;
    TEXPIM_PROF_CYCLES(prof::kZoneHmcVault, done - start);
    TEXPIM_TRACE_COMPLETE("dram", "vault_access", 200 + vidx, start,
                          done - start);
    return done;
}

void
HmcMemory::beginFrame()
{
    for (auto &cube : cubes_) {
        cube.tx.res.reset();
        cube.rx.res.reset();
        std::fill(cube.tx.retrySlots.begin(), cube.tx.retrySlots.end(), 0.0);
        std::fill(cube.rx.retrySlots.begin(), cube.rx.retrySlots.end(), 0.0);
        cube.internalAgg.reset();
        for (auto &v : cube.vaults) {
            v.bus.reset();
            for (auto &b : v.banks)
                b.resetTiming();
        }
    }
}

Cycle
HmcMemory::access(const MemRequest &req)
{
    TEXPIM_ASSERT(req.bytes > 0, "zero-byte memory access");

    bool is_read = req.op == MemOp::Read;
    Cube &cube = cubes_[cubeOf(req.addr)];

    // Request packet over the transmit link: header only for reads,
    // header + payload for writes.
    u64 tx_bytes = params_.requestPacketBytes + (is_read ? 0 : req.bytes);
    double tx_done =
        sendPacket(cube, cube.tx, double(req.issue), tx_bytes, tx_bw_);
    Cycle at_cube = Cycle(std::ceil(tx_done)) + params_.linkLatency;

    RowBufferOutcome outcome;
    Cycle vault_done = vaultAccess(req.addr, req.bytes, at_cube, outcome);

    // Response packet over the receive link: header + data for reads,
    // header-only acknowledge for writes.
    u64 rx_bytes = params_.responseHeaderBytes + (is_read ? req.bytes : 0);
    double rx_done =
        sendPacket(cube, cube.rx, double(vault_done), rx_bytes, rx_bw_);
    Cycle done = Cycle(std::ceil(rx_done)) + params_.linkLatency;

    // Traffic meters count payload bytes (the paper's Fig. 12 counts
    // B-PIM texture traffic equal to the baseline's); packet headers
    // cost link time above but are not "texture bytes". Explicit PIM
    // packages (hostToDevice/deviceToHost) count in full instead.
    countOffChip(req.cls, req.bytes);
    internal_.add(req.cls, req.bytes);
    notifyTraffic(TrafficChannel::OffChip, req.cls, req.addr, req.bytes,
                  int(globalVaultOf(req.addr)), req.issue);
    notifyTraffic(TrafficChannel::Internal, req.cls, req.addr, req.bytes,
                  int(globalVaultOf(req.addr)), req.issue);
    ++(is_read ? reads_ : writes_);
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

    return done;
}

Cycle
HmcMemory::internalAccess(const MemRequest &req)
{
    TEXPIM_ASSERT(req.bytes > 0, "zero-byte internal access");

    RowBufferOutcome outcome;
    Cycle done = vaultAccess(req.addr, req.bytes, req.issue, outcome);

    internal_.add(req.cls, req.bytes);
    notifyTraffic(TrafficChannel::Internal, req.cls, req.addr, req.bytes,
                  int(globalVaultOf(req.addr)), req.issue);
    ++(req.op == MemOp::Read ? internal_reads_ : internal_writes_);
    internal_latency_.sample(double(done - req.issue));
    return done;
}

Cycle
HmcMemory::hostToDevice(u64 bytes, TrafficClass cls, Cycle now,
                        Addr route_addr)
{
    TEXPIM_ASSERT(bytes > 0, "zero-byte package");
    Cube &cube = cubes_[cubeOf(route_addr)];
    double done = sendPacket(cube, cube.tx, double(now), bytes, tx_bw_);
    countOffChip(cls, bytes);
    // Package bytes are off-chip bytes: the OffChip row mirrors
    // countOffChip exactly (the accounting identity); PkgToDevice
    // keeps the per-direction breakdown on top.
    notifyTraffic(TrafficChannel::OffChip, cls, route_addr, bytes, -1, now);
    notifyTraffic(TrafficChannel::PkgToDevice, cls, route_addr, bytes, -1,
                  now);
    ++packages_to_device_;
    Cycle arrive = Cycle(std::ceil(done)) + params_.linkLatency;
    TEXPIM_TRACE_COMPLETE("pim", "pkg_to_device", 300, now, arrive - now);
    return arrive;
}

Cycle
HmcMemory::deviceToHost(u64 bytes, TrafficClass cls, Cycle now,
                        Addr route_addr)
{
    TEXPIM_ASSERT(bytes > 0, "zero-byte package");
    Cube &cube = cubes_[cubeOf(route_addr)];
    double done = sendPacket(cube, cube.rx, double(now), bytes, rx_bw_);
    countOffChip(cls, bytes);
    // Mirror countOffChip on the OffChip row, as in hostToDevice.
    notifyTraffic(TrafficChannel::OffChip, cls, route_addr, bytes, -1, now);
    notifyTraffic(TrafficChannel::PkgToHost, cls, route_addr, bytes, -1,
                  now);
    ++packages_to_host_;
    Cycle arrive = Cycle(std::ceil(done)) + params_.linkLatency;
    TEXPIM_TRACE_COMPLETE("pim", "pkg_to_host", 301, now, arrive - now);
    return arrive;
}

void
HmcMemory::resetStats()
{
    MemorySystem::resetStats();
    internal_.reset();
}

} // namespace texpim
