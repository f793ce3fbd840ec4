/**
 * @file
 * Deterministic procedural texture generators.
 *
 * Stand-ins for the game art the paper's captured traces reference
 * (see DESIGN.md substitutions). What matters for the study is texel
 * *addressing structure* (resolution, mip usage), not artistic content;
 * the generators still produce visually plausible materials so that
 * PSNR comparisons measure real detail loss.
 */

#ifndef TEXPIM_SCENE_PROCEDURAL_TEXTURE_HH
#define TEXPIM_SCENE_PROCEDURAL_TEXTURE_HH

#include "common/types.hh"
#include "geom/color.hh"
#include "tex/texture.hh"

namespace texpim {

enum class Material : u8 {
    Checker,
    Bricks,
    Stone,
    Marble,
    Wood,
    Metal,
    Grass,
    Concrete,
};

const char *materialName(Material m);

/** Generate a `size` x `size` image of the given material. */
TextureImage generateTexture(Material m, unsigned size, u64 seed);

/**
 * Smooth value noise in [0,1] with `octaves` octaves of fBm; the basis
 * for most materials. This is the point evaluator: generateTexture
 * evaluates the same lattice math a row at a time, bit-identically.
 * Exposed for tests.
 */
float fbmNoise(float x, float y, unsigned octaves, u64 seed);

} // namespace texpim

#endif // TEXPIM_SCENE_PROCEDURAL_TEXTURE_HH
