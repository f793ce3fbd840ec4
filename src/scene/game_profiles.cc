#include "scene/game_profiles.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "scene/procedural_texture.hh"

namespace texpim {

namespace {

/** Texel density in repeats per world unit: with 1024^2 base textures
 *  this keeps near-to-mid-distance footprints in the finest mip
 *  levels, which is where the texture-bandwidth pressure of the
 *  paper's workloads comes from. */
constexpr float kRepsPerUnit = 0.25f;

/**
 * The textures of a level under construction. A fresh level
 * synthesizes each texture into a new store. A level that adopts a
 * store built earlier for the same game and seed checks instead
 * that the store holds the texture at the same id, and synthesizes
 * nothing. Either way the caller makes the same Rng draws, so the
 * geometry does not depend on which path ran.
 */
// texpim-lint: caller-owned each scene build owns its private
// LevelTextures; addMaterial() mutates only it and its unpublished store
class LevelTextures
{
  public:
    /** @param adopted a prebuilt store to check against, or null */
    explicit LevelTextures(std::shared_ptr<TextureStore> adopted)
        : adopted_(adopted != nullptr),
          store_(adopted ? std::move(adopted)
                         : std::make_shared<TextureStore>())
    {}

    /** Add (or, when adopting, find) the next texture; returns its id. */
    u32
    addMaterial(Material m, unsigned size, u64 seed)
    {
        std::string name = std::string(materialName(m)) + "_" +
                           std::to_string(size) + "_" +
                           std::to_string(seed & 0xffff);
        u32 id = next_++;
        if (adopted_) {
            std::string actual = id < store_->count()
                                     ? store_->texture(id).name()
                                     : std::string("<none>");
            TEXPIM_ASSERT(actual == name,
                          "adopted texture store does not match the "
                          "workload: texture ", id, " should be '", name,
                          "', the store has '", actual, "'");
            return id;
        }
        // texpim-lint: allow(T1) ownership transfer: the store belongs to
        // a scene still under construction, not yet published to the pool
        return store_->add(std::move(name), generateTexture(m, size, seed));
    }

    /** The finished store; an adopted one must hold nothing more. */
    std::shared_ptr<TextureStore>
    finish() const
    {
        TEXPIM_ASSERT(next_ == store_->count(),
                      "adopted texture store does not match the workload: "
                      "the store holds ", store_->count(),
                      " textures, the level has ", next_);
        return store_;
    }

  private:
    bool adopted_;
    std::shared_ptr<TextureStore> store_;
    u32 next_ = 0;
};

void
addObject(Scene &s, Mesh mesh, u32 tex, i32 detail = -1,
          float detail_scale = 6.0f)
{
    SceneObject o;
    o.mesh = std::move(mesh);
    o.textureId = tex;
    o.detailTextureId = detail;
    o.detailUvScale = detail_scale;
    s.objects.push_back(std::move(o));
}

/** A wall/floor surface with world-proportional uv density, tessellated
 *  at roughly 0.75-unit cells for per-vertex lighting (bounded so one
 *  face never explodes the vertex budget). */
Mesh
surfaceQuad(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float density = kRepsPerUnit)
{
    float lu = edge_u.length();
    float lv = edge_v.length();
    unsigned nu = std::min(128u, std::max(1u, unsigned(lu / 0.75f)));
    unsigned nv = std::min(128u, std::max(1u, unsigned(lv / 0.75f)));
    return makeGridQuad(origin, edge_u, edge_v, lu * density, lv * density,
                        nu, nv);
}

/**
 * A corridor along -Z with a distinct texture (and optional detail
 * layer) per face — floors, ceilings and walls are different materials
 * in every title we model, and per-face textures keep their texel
 * address spaces disjoint (an aliased floor/wall texel would poison
 * the A-TFIM camera-angle reuse).
 */
void
addCorridor(Scene &s, Vec3 e, float width, float height, float length,
            u32 floor_tex, u32 ceil_tex, u32 wall_l_tex, u32 wall_r_tex,
            i32 floor_detail = -1, i32 wall_detail = -1,
            i32 floor_alt = -1, i32 wall_alt = -1,
            i32 wall_detail_r = -1)
{
    // Distinct detail maps per wall side unless the caller says
    // otherwise — the two walls overlap in base-uv space, and a shared
    // detail layer would alias their texels across camera angles.
    if (wall_detail_r < 0)
        wall_detail_r = wall_detail;
    // Faces are split into segments with alternating materials, as
    // real levels mix several wall/floor sets along a corridor; this
    // is a major contributor to the per-frame texture working set.
    constexpr unsigned kSegments = 4;
    float hw = width * 0.5f;
    float seg = length / float(kSegments);
    for (unsigned i = 0; i < kSegments; ++i) {
        float z = e.z - seg * float(i);
        bool alt = (i & 1) != 0;
        u32 f = alt && floor_alt >= 0 ? u32(floor_alt) : floor_tex;
        u32 wl = alt && wall_alt >= 0 ? u32(wall_alt) : wall_l_tex;
        u32 wr = alt && wall_alt >= 0 ? u32(wall_alt) : wall_r_tex;
        addObject(s,
                  surfaceQuad({e.x - hw, e.y, z}, {0, 0, -seg},
                              {width, 0, 0}),
                  f, floor_detail);
        addObject(s,
                  surfaceQuad({e.x - hw, e.y + height, z}, {width, 0, 0},
                              {0, 0, -seg}),
                  ceil_tex);
        addObject(s,
                  surfaceQuad({e.x - hw, e.y, z}, {0, height, 0},
                              {0, 0, -seg}),
                  wl, wall_detail);
        addObject(s,
                  surfaceQuad({e.x + hw, e.y, z}, {0, 0, -seg},
                              {0, height, 0}),
                  wr, wall_detail_r);
    }
}

/** A camera flying down a corridor along -Z, gently bobbing and
 *  yawing so the per-pixel camera angles vary frame to frame. */
Camera
corridorCamera(unsigned frame, float height, float speed)
{
    Camera cam;
    float t = float(frame);
    cam.eye = {0.35f * std::sin(t * 0.21f), height, -speed * t};
    float yaw = 0.15f * std::sin(t * 0.13f);
    float pitch = -0.18f + 0.05f * std::sin(t * 0.17f);
    Vec3 dir{std::sin(yaw), std::sin(pitch), -std::cos(yaw)};
    cam.center = cam.eye + dir;
    return cam;
}

Scene
buildDoom3(unsigned frame, u64 seed, LevelTextures &tex)
{
    // Industrial corridor complex: long metal/concrete corridor with
    // columns and crates; Id Tech 4's tight indoor spaces.
    Scene s;
    Rng rng(seed);
    u32 floor = tex.addMaterial(Material::Concrete, 1024, rng.next());
    u32 ceil = tex.addMaterial(Material::Metal, 1024, rng.next());
    u32 wall_l = tex.addMaterial(Material::Metal, 1024, rng.next());
    u32 wall_r = tex.addMaterial(Material::Stone, 1024, rng.next());
    u32 room = tex.addMaterial(Material::Stone, 1024, rng.next());
    u32 column = tex.addMaterial(Material::Marble, 512, rng.next());
    u32 crate = tex.addMaterial(Material::Wood, 512, rng.next());
    i32 det_floor = i32(tex.addMaterial(Material::Metal, 256, rng.next()));
    i32 det_wall = i32(tex.addMaterial(Material::Concrete, 256, rng.next()));
    i32 det_wall_r = i32(tex.addMaterial(Material::Stone, 256, rng.next()));

    addCorridor(s, {0, 0, 10}, 6, 4, 220, floor, ceil, wall_l, wall_r,
                det_floor, det_wall, i32(room), i32(column), det_wall_r);
    addObject(s, makeRoom({0, 2, -230}, {14, 6, 14}, 10.0f), room);
    for (int i = 0; i < 10; ++i) {
        float z = -15.0f - 20.0f * float(i);
        addObject(s, makeColumn({-2.4f, 0, z}, 0.4f, 4.0f, 6), column);
        addObject(s, makeColumn({2.4f, 0, z}, 0.4f, 4.0f, 6), column);
    }
    for (int i = 0; i < 6; ++i) {
        float z = -25.0f - 35.0f * float(i);
        float x = float(rng.uniform(-1.8, 1.8));
        addObject(s, makeBox({x, 0.5f, z}, {0.5f, 0.5f, 0.5f}, 1.0f), crate);
    }
    s.camera = corridorCamera(frame, 1.8f, 1.2f);
    return s;
}

Scene
buildFear(unsigned frame, u64 seed, LevelTextures &tex)
{
    // Office interior: a long open-plan floor, desks and crates;
    // Jupiter EX's mid-size rooms.
    Scene s;
    Rng rng(seed + 1);
    u32 carpet = tex.addMaterial(Material::Checker, 1024, rng.next());
    u32 wall_a = tex.addMaterial(Material::Concrete, 1024, rng.next());
    u32 wall_b = tex.addMaterial(Material::Concrete, 1024, rng.next());
    u32 ceil = tex.addMaterial(Material::Marble, 1024, rng.next());
    u32 wood = tex.addMaterial(Material::Wood, 512, rng.next());
    u32 metal = tex.addMaterial(Material::Metal, 512, rng.next());
    i32 det_carpet = i32(tex.addMaterial(Material::Grass, 256, rng.next()));
    i32 det_wall = i32(tex.addMaterial(Material::Stone, 256, rng.next()));
    i32 det_wall_r = i32(tex.addMaterial(Material::Concrete, 256, rng.next()));

    addCorridor(s, {0, 0, 6}, 14, 4, 48, carpet, ceil, wall_a, wall_b,
                det_carpet, det_wall, i32(wood), i32(metal), det_wall_r);
    addObject(s, surfaceQuad({-7, 0, -42}, {14, 0, 0}, {0, 4, 0}), wall_a,
              det_wall); // far wall
    for (int i = 0; i < 8; ++i) {
        float z = -4.0f - 3.6f * float(i);
        float x = (i & 1) ? 4.0f : -4.0f;
        addObject(s, makeBox({x, 0.4f, z}, {0.9f, 0.4f, 0.6f}, 1.5f), wood);
    }
    for (int i = 0; i < 4; ++i) {
        float z = -6.0f - 7.0f * float(i);
        addObject(s, makeBox({0.0f, 0.6f, z}, {0.4f, 0.6f, 0.4f}, 1.0f),
                  metal);
    }
    s.camera = corridorCamera(frame, 1.7f, 0.8f);
    return s;
}

Scene
buildHalfLife2(unsigned frame, u64 seed, LevelTextures &tex)
{
    // Source-engine outdoor mix: terrain, a plaza and buildings seen
    // across long grazing sightlines.
    Scene s;
    Rng rng(seed + 2);
    u32 grass = tex.addMaterial(Material::Grass, 1024, rng.next());
    u32 plaza = tex.addMaterial(Material::Marble, 1024, rng.next());
    u32 building_a = tex.addMaterial(Material::Bricks, 1024, rng.next());
    u32 building_b = tex.addMaterial(Material::Bricks, 1024, rng.next());
    u32 concrete = tex.addMaterial(Material::Concrete, 512, rng.next());
    i32 det_ground = i32(tex.addMaterial(Material::Grass, 256, rng.next()));
    i32 det_plaza = i32(tex.addMaterial(Material::Concrete, 256, rng.next()));
    i32 det_brick = i32(tex.addMaterial(Material::Stone, 256, rng.next()));
    i32 det_brick_b = i32(tex.addMaterial(Material::Metal, 256, rng.next()));

    Mesh terrain = makeTerrain(24, 160.0f, 1.2f, seed);
    // Terrain uvs are per-quad indices; rescale to world density.
    for (auto &v : terrain.verts)
        v.uv = v.uv * (160.0f / 24.0f) * kRepsPerUnit;
    addObject(s, std::move(terrain), grass, det_ground);
    s.objects.back().model = Mat4::translate({0, -0.6f, -70});

    addObject(s, surfaceQuad({-12, 0.0f, 0}, {24, 0, 0}, {0, 0, -60}), plaza,
              det_plaza);
    for (int i = 0; i < 6; ++i) {
        float z = -18.0f - 16.0f * float(i);
        float x = (i & 1) ? 14.0f : -14.0f;
        addObject(s, makeBox({x, 6, z}, {4, 6, 5}, 5.0f),
                  (i & 1) ? building_a : building_b,
                  (i & 1) ? det_brick : det_brick_b);
    }
    addObject(s, makeBox({0, 1.2f, -55}, {8, 1.2f, 1.0f}, 3.0f), concrete);
    Camera cam = corridorCamera(frame, 1.7f, 1.0f);
    cam.zFar = 800.0f;
    s.camera = cam;
    return s;
}

Scene
buildRiddick(unsigned frame, u64 seed, LevelTextures &tex)
{
    // Butcher Bay: narrow dark metal corridors.
    Scene s;
    Rng rng(seed + 3);
    u32 floor = tex.addMaterial(Material::Stone, 512, rng.next());
    u32 ceil = tex.addMaterial(Material::Metal, 512, rng.next());
    u32 wall_l = tex.addMaterial(Material::Metal, 512, rng.next());
    u32 wall_r = tex.addMaterial(Material::Metal, 512, rng.next());
    u32 crate = tex.addMaterial(Material::Concrete, 256, rng.next());
    i32 det = i32(tex.addMaterial(Material::Metal, 256, rng.next()));
    i32 det_r = i32(tex.addMaterial(Material::Stone, 256, rng.next()));

    addCorridor(s, {0, 0, 5}, 3.2f, 2.8f, 120, floor, ceil, wall_l, wall_r,
                det, det, i32(crate), i32(ceil), det_r);
    for (int i = 0; i < 8; ++i) {
        float z = -8.0f - 12.0f * float(i);
        addObject(s, makeBox({(i & 1) ? 1.0f : -1.0f, 0.35f, z},
                             {0.35f, 0.35f, 0.35f}, 1.0f),
                  crate);
    }
    s.camera = corridorCamera(frame, 1.6f, 0.9f);
    return s;
}

Scene
buildWolfenstein(unsigned frame, u64 seed, LevelTextures &tex)
{
    // Castle interiors: brick and stone halls with wooden beams.
    Scene s;
    Rng rng(seed + 4);
    u32 floor = tex.addMaterial(Material::Stone, 512, rng.next());
    u32 ceil = tex.addMaterial(Material::Wood, 512, rng.next());
    u32 wall_l = tex.addMaterial(Material::Bricks, 512, rng.next());
    u32 wall_r = tex.addMaterial(Material::Bricks, 512, rng.next());
    u32 beam = tex.addMaterial(Material::Wood, 512, rng.next());
    i32 det = i32(tex.addMaterial(Material::Stone, 256, rng.next()));
    i32 det_r = i32(tex.addMaterial(Material::Concrete, 256, rng.next()));

    addCorridor(s, {0, 0, 8}, 5, 5, 140, floor, ceil, wall_l, wall_r, det,
                det, i32(beam), i32(ceil), det_r);
    for (int i = 0; i < 7; ++i) {
        float z = -10.0f - 18.0f * float(i);
        addObject(s, makeColumn({-1.9f, 0, z}, 0.3f, 5.0f, 4), beam);
        addObject(s, makeColumn({1.9f, 0, z}, 0.3f, 5.0f, 4), beam);
    }
    s.camera = corridorCamera(frame, 1.75f, 1.0f);
    return s;
}

} // namespace

const char *
gameName(Game g)
{
    switch (g) {
      case Game::Doom3:
        return "doom3";
      case Game::Fear:
        return "fear";
      case Game::HalfLife2:
        return "hl2";
      case Game::Riddick:
        return "riddick";
      case Game::Wolfenstein:
        return "wolfenstein";
      default:
        TEXPIM_PANIC("bad game ", int(g));
    }
}

bool
parseGame(const std::string &name, Game &out)
{
    for (Game g : {Game::Doom3, Game::Fear, Game::HalfLife2, Game::Riddick,
                   Game::Wolfenstein}) {
        if (name == gameName(g)) {
            out = g;
            return true;
        }
    }
    return false;
}

const char *
gameLibrary(Game g)
{
    switch (g) {
      case Game::Doom3:
      case Game::Riddick:
        return "OpenGL";
      default:
        return "D3D";
    }
}

const char *
gameEngine(Game g)
{
    switch (g) {
      case Game::Doom3:
      case Game::Wolfenstein:
        return "Id Tech 4";
      case Game::Fear:
        return "Jupiter EX";
      case Game::HalfLife2:
        return "Source Engine";
      case Game::Riddick:
        return "In-House Engine";
      default:
        TEXPIM_PANIC("bad game ", int(g));
    }
}

std::string
Workload::label() const
{
    return std::string(gameName(game)) + "-" + std::to_string(width) + "x" +
           std::to_string(height);
}

const std::vector<Workload> &
paperWorkloads()
{
    static const std::vector<Workload> table = {
        {Game::Doom3, 1280, 1024},       {Game::Doom3, 640, 480},
        {Game::Doom3, 320, 240},         {Game::Fear, 1280, 1024},
        {Game::Fear, 640, 480},          {Game::Fear, 320, 240},
        {Game::HalfLife2, 1280, 1024},   {Game::HalfLife2, 640, 480},
        {Game::Riddick, 640, 480},       {Game::Wolfenstein, 640, 480},
    };
    return table;
}

unsigned
defaultMaxAniso(unsigned width)
{
    if (width >= 1280)
        return 16;
    if (width >= 640)
        return 8;
    return 4;
}

Scene
buildGameScene(const Workload &wl, unsigned frame, u64 seed,
               std::shared_ptr<TextureStore> textures)
{
    LevelTextures tex(std::move(textures));
    Scene s;
    switch (wl.game) {
      case Game::Doom3:
        s = buildDoom3(frame, seed, tex);
        break;
      case Game::Fear:
        s = buildFear(frame, seed, tex);
        break;
      case Game::HalfLife2:
        s = buildHalfLife2(frame, seed, tex);
        break;
      case Game::Riddick:
        s = buildRiddick(frame, seed, tex);
        break;
      case Game::Wolfenstein:
        s = buildWolfenstein(frame, seed, tex);
        break;
      default:
        TEXPIM_PANIC("bad game ", int(wl.game));
    }
    s.textures = tex.finish();
    s.name = wl.label();
    s.settings.width = wl.width;
    s.settings.height = wl.height;
    s.settings.filterMode = FilterMode::Trilinear;
    s.settings.maxAniso = defaultMaxAniso(wl.width);
    return s;
}

} // namespace texpim
