/**
 * @file
 * Event-count energy model in the spirit of the paper's methodology
 * (§VI): McPAT-style per-event energies for shader/texture ALUs and
 * caches, 5 pJ/bit for HMC links and 4 pJ/bit for HMC DRAM, a
 * Micron-style per-bit + activate model for GDDR5, a flat 10 % adder
 * for leakage, and execution-time-dependent background power — the
 * term through which A-TFIM's speedup becomes its energy win.
 */

#ifndef TEXPIM_POWER_ENERGY_MODEL_HH
#define TEXPIM_POWER_ENERGY_MODEL_HH

#include "common/types.hh"

namespace texpim {

struct EnergyParams
{
    // Per-event dynamic energies (joules).
    double aluOpJ = 20e-12;      //!< one simd4-scalar shader ALU op
    double texAluOpJ = 18e-12;   //!< one texture address/filter ALU op
    double l1AccessJ = 12e-12;   //!< per L1 line access
    double l2AccessJ = 35e-12;   //!< per L2 line access
    double ropCacheAccessJ = 12e-12;

    // Memory energies.
    double hmcLinkJPerBit = 5e-12; //!< §VI: links consume 5 pJ/bit
    double hmcDramJPerBit = 4e-12; //!< §VI: DRAM consumes 4 pJ/bit
    double gddr5JPerBit = 9e-12;   //!< Micron-model effective pJ/bit
    double gddr5ActivateJ = 2e-9;  //!< per row activate

    // Time-dependent power (watts) at the 1 GHz core clock.
    double gpuBackgroundW = 24.0;   //!< clocks, idle lanes, schedulers
    double gddr5BackgroundW = 9.0;  //!< DLLs, refresh, standby
    double hmcBackgroundW = 6.5;    //!< shorter interconnect (§VII-C)

    /** Extra logic-layer power per design (§VII-C: A-TFIM "requires a
     *  higher average power than the others"). */
    double stfimMtuW = 8.0;   //!< 16 MTUs resident in the logic layer
    double atfimLogicW = 5.0; //!< Texel Generator + Combination Unit

    double leakageFraction = 0.10; //!< §VI: +10 % leakage adder
    double coreGhz = 1.0;
};

/** Event counts for one rendered frame. */
struct EnergyInputs
{
    Cycle frameCycles = 0;

    u64 shaderAluOps = 0;   //!< vertex + fragment shading ops
    u64 texAluOps = 0;      //!< address + filter ops, host and in-HMC
    u64 l1Accesses = 0;
    u64 l2Accesses = 0;
    u64 ropCacheAccesses = 0;

    u64 offChipBytes = 0; //!< bytes over the GDDR5 bus / HMC links
    u64 dramBytes = 0;    //!< bytes moved inside the DRAM device
    u64 rowActivates = 0; //!< GDDR5 activates (row misses+conflicts)

    bool usesHmc = false;
    double pimLogicW = 0.0; //!< logic-layer unit power for this design
};

/** Joules, by component. */
struct EnergyBreakdown
{
    double shaderJ = 0.0;
    double textureJ = 0.0;
    double cacheJ = 0.0;
    double memoryJ = 0.0;     //!< off-chip transfer + DRAM core
    double backgroundJ = 0.0; //!< time-dependent
    double leakageJ = 0.0;

    double
    total() const
    {
        return shaderJ + textureJ + cacheJ + memoryJ + backgroundJ +
               leakageJ;
    }
};

EnergyBreakdown estimateEnergy(const EnergyParams &params,
                               const EnergyInputs &in);

} // namespace texpim

#endif // TEXPIM_POWER_ENERGY_MODEL_HH
