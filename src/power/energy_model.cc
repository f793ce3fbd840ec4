#include "power/energy_model.hh"

namespace texpim {

EnergyBreakdown
estimateEnergy(const EnergyParams &params, const EnergyInputs &in)
{
    EnergyBreakdown e;

    e.shaderJ = double(in.shaderAluOps) * params.aluOpJ;
    e.textureJ = double(in.texAluOps) * params.texAluOpJ;
    e.cacheJ = double(in.l1Accesses) * params.l1AccessJ +
               double(in.l2Accesses) * params.l2AccessJ +
               double(in.ropCacheAccesses) * params.ropCacheAccessJ;

    if (in.usesHmc) {
        e.memoryJ = double(in.offChipBytes) * 8.0 * params.hmcLinkJPerBit +
                    double(in.dramBytes) * 8.0 * params.hmcDramJPerBit;
    } else {
        e.memoryJ = double(in.offChipBytes) * 8.0 * params.gddr5JPerBit +
                    double(in.rowActivates) * params.gddr5ActivateJ;
    }

    double seconds = double(in.frameCycles) / (params.coreGhz * 1e9);
    double mem_bg =
        in.usesHmc ? params.hmcBackgroundW : params.gddr5BackgroundW;
    e.backgroundJ =
        (params.gpuBackgroundW + mem_bg + in.pimLogicW) * seconds;

    // The paper adds a flat 10 % of the total as leakage (§VI).
    double dynamic =
        e.shaderJ + e.textureJ + e.cacheJ + e.memoryJ + e.backgroundJ;
    e.leakageJ = dynamic * params.leakageFraction;
    return e;
}

} // namespace texpim
