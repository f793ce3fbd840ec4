/**
 * @file
 * The four design points the paper evaluates (§VII).
 */

#ifndef TEXPIM_SIM_DESIGN_HH
#define TEXPIM_SIM_DESIGN_HH

#include <string>

#include "common/types.hh"

namespace texpim {

enum class Design : u8 {
    Baseline, //!< GPU + GDDR5, all filtering on-chip
    BPim,     //!< GPU + HMC as drop-in memory (§III)
    STfim,    //!< texture units moved into the HMC logic layer (§IV)
    ATfim,    //!< anisotropic-first filtering in the HMC (§V)
};

const char *designName(Design d);

/** Parse a design token: baseline, bpim (b-pim), stfim (s-tfim) or
 *  atfim (a-tfim). Returns false, leaving `out` alone, otherwise. */
bool parseDesign(const std::string &name, Design &out);

/** The paper's camera-angle thresholds (§VII-D), in radians. */
inline constexpr float kPiF = 3.14159265358979323846f;
inline constexpr float kThreshold0005Pi = 0.005f * kPiF; //!< 0.9 degrees
inline constexpr float kThreshold001Pi = 0.01f * kPiF;   //!< 1.8 deg (default)
inline constexpr float kThreshold005Pi = 0.05f * kPiF;   //!< 9 degrees
inline constexpr float kThreshold01Pi = 0.1f * kPiF;     //!< 18 degrees
inline constexpr float kThresholdNoRecalc = -1.0f;       //!< A-TFIM-no

} // namespace texpim

#endif // TEXPIM_SIM_DESIGN_HH
