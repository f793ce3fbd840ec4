/**
 * @file
 * The five game profiles of Table II and the 11 benchmark workload
 * points (game x resolution) the paper evaluates.
 *
 * Each profile procedurally builds a scene whose *texel-fetch
 * structure* mimics the corresponding title: indoor corridor shooters
 * (Doom3, Riddick, Wolfenstein) with grazing-angle floors and walls,
 * an office-interior shooter (FEAR), and a larger outdoor/indoor mix
 * (Half-Life 2). See DESIGN.md for the substitution rationale.
 */

#ifndef TEXPIM_SCENE_GAME_PROFILES_HH
#define TEXPIM_SCENE_GAME_PROFILES_HH

#include <memory>
#include <string>
#include <vector>

#include "scene/scene.hh"

namespace texpim {

enum class Game : u8 { Doom3, Fear, HalfLife2, Riddick, Wolfenstein };

const char *gameName(Game g);

/** Parse a game token, the inverse of gameName(): doom3, fear, hl2,
 *  riddick or wolfenstein. Returns false, leaving `out` alone,
 *  otherwise. */
bool parseGame(const std::string &name, Game &out);

/** Rendering library per Table II (informational). */
const char *gameLibrary(Game g);

/** 3D engine per Table II (informational). */
const char *gameEngine(Game g);

/** One benchmark point of Table II. */
struct Workload
{
    Game game;
    unsigned width;
    unsigned height;

    std::string label() const; //!< e.g. "doom3-1280x1024"
};

/** The 11 workload points of Table II, in the paper's order. */
const std::vector<Workload> &paperWorkloads();

/**
 * Default maximum anisotropy per resolution: the paper observes that
 * higher-resolution configurations "usually demand higher anisotropic
 * level and texel details" (§VII-A).
 */
unsigned defaultMaxAniso(unsigned width);

/**
 * Build the scene for a workload.
 * @param frame    camera-path position; consecutive frames move the
 *                 camera through the level
 * @param seed     content seed (fixed default for reproducibility)
 * @param textures the level's texture store from an earlier build of
 *                 the same game and seed, to adopt instead of
 *                 synthesizing the textures again (textures depend only
 *                 on game and seed, not on frame or resolution). Panics,
 *                 naming the expected and the stored texture, if the
 *                 store was built for another game or seed. Null builds
 *                 a fresh store.
 */
Scene buildGameScene(const Workload &wl, unsigned frame = 0,
                     u64 seed = 0x7e01d,
                     std::shared_ptr<TextureStore> textures = nullptr);

} // namespace texpim

#endif // TEXPIM_SCENE_GAME_PROFILES_HH
