/**
 * @file
 * PIM package-size model (§IV, §VI).
 *
 * The paper models the S-TFIM offloading package as 4x the size of a
 * normal memory-read request package, and the TFIM response package as
 * equal to an HMC read-response package. The A-TFIM Offloading Unit
 * compacts parent-texel fetches with a hash table that pairs each
 * parent with its offset from the first parent's address (§V-D).
 */

#ifndef TEXPIM_PIM_PACKAGES_HH
#define TEXPIM_PIM_PACKAGES_HH

#include "common/types.hh"

namespace texpim {

struct PimPacketParams
{
    u64 readRequestBytes = 16;   //!< normal HMC read request package
    u64 responseHeaderBytes = 16;
    u64 offloadFactor = 4;       //!< S-TFIM request = 4x read request (§VI)
    u64 texResultBytes = 16;     //!< filtered-texture payload per response
    u64 parentBaseAddrBytes = 8; //!< A-TFIM: first parent's full address
    /** A-TFIM per-parent payload: hashed offset, camera angle, lod and
     *  pixel-coordinate bits the Texel Generator needs (§V-D). */
    u64 parentOffsetBytes = 6;
    u64 parentValueBytes = 8; //!< FP16 RGBA parent texel value

    /** S-TFIM texture request package (live-texture info, §IV). */
    u64
    stfimRequestBytes() const
    {
        return readRequestBytes * offloadFactor;
    }

    /** S-TFIM texture response package (= HMC read response, §VI). */
    u64
    stfimResponseBytes() const
    {
        return responseHeaderBytes + texResultBytes;
    }

    /** A-TFIM parent-texel fetch package for `n` missing parents. */
    u64
    atfimRequestBytes(unsigned n) const
    {
        return responseHeaderBytes + parentBaseAddrBytes +
               parentOffsetBytes * n;
    }

    /** A-TFIM parent-texel response package for `n` parents; formatted
     *  as a normal bilinear-fetch result (§V-D composing stage). */
    u64
    atfimResponseBytes(unsigned n) const
    {
        return responseHeaderBytes + parentValueBytes * n;
    }
};

} // namespace texpim

#endif // TEXPIM_PIM_PACKAGES_HH
