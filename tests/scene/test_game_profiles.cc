#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "scene/game_profiles.hh"

namespace texpim {
namespace {

TEST(GameProfiles, TableTwoHasTenWorkloads)
{
    const auto &wl = paperWorkloads();
    ASSERT_EQ(wl.size(), 10u);
    EXPECT_EQ(wl[0].label(), "doom3-1280x1024");
    EXPECT_EQ(wl[2].label(), "doom3-320x240");
    EXPECT_EQ(wl[8].label(), "riddick-640x480");
    EXPECT_EQ(wl[9].label(), "wolfenstein-640x480");
}

TEST(GameProfiles, ResolutionDrivesDefaultAniso)
{
    EXPECT_EQ(defaultMaxAniso(1280), 16u);
    EXPECT_EQ(defaultMaxAniso(640), 8u);
    EXPECT_EQ(defaultMaxAniso(320), 4u);
}

TEST(GameProfiles, ParseGameInvertsGameName)
{
    for (Game g : {Game::Doom3, Game::Fear, Game::HalfLife2, Game::Riddick,
                   Game::Wolfenstein}) {
        Game parsed = Game::Doom3;
        ASSERT_TRUE(parseGame(gameName(g), parsed)) << gameName(g);
        EXPECT_EQ(parsed, g);
    }
    Game untouched = Game::Riddick;
    for (const char *bad : {"", "Doom3", "halflife2", "doom", "quake"}) {
        EXPECT_FALSE(parseGame(bad, untouched)) << bad;
        EXPECT_EQ(untouched, Game::Riddick);
    }
}

class AllWorkloads : public testing::TestWithParam<size_t>
{};

TEST_P(AllWorkloads, ScenesBuildAndAreRenderable)
{
    const Workload &wl = paperWorkloads()[GetParam()];
    Scene s = buildGameScene(wl, 3);
    EXPECT_EQ(s.name, wl.label());
    EXPECT_EQ(s.settings.width, wl.width);
    EXPECT_EQ(s.settings.height, wl.height);
    EXPECT_GT(s.objects.size(), 3u);
    EXPECT_GT(s.triangleCount(), 100u);
    EXPECT_GE(s.textures->count(), 5u);
    for (const auto &o : s.objects) {
        EXPECT_LT(o.textureId, s.textures->count());
        if (o.detailTextureId >= 0) {
            EXPECT_LT(u32(o.detailTextureId), s.textures->count());
        }
        EXPECT_FALSE(o.mesh.verts.empty());
    }
    // Camera looks down the level, not at degenerate zero direction.
    Vec3 dir = s.camera.center - s.camera.eye;
    EXPECT_GT(dir.length(), 0.1f);
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloads,
                         testing::Range<size_t>(0, 10),
                         [](const testing::TestParamInfo<size_t> &info) {
                             std::string l =
                                 paperWorkloads()[info.param].label();
                             for (char &c : l)
                                 if (c == '-')
                                     c = '_';
                             return l;
                         });

TEST(GameProfiles, DeterministicAcrossCalls)
{
    Workload wl{Game::Doom3, 640, 480};
    Scene a = buildGameScene(wl, 5);
    Scene b = buildGameScene(wl, 5);
    ASSERT_EQ(a.objects.size(), b.objects.size());
    EXPECT_EQ(a.triangleCount(), b.triangleCount());
    EXPECT_FLOAT_EQ(a.camera.eye.z, b.camera.eye.z);
}

TEST(GameProfiles, CameraMovesAcrossFrames)
{
    Workload wl{Game::Fear, 640, 480};
    Scene f0 = buildGameScene(wl, 0);
    Scene f9 = buildGameScene(wl, 9);
    EXPECT_NE(f0.camera.eye.z, f9.camera.eye.z);
}

TEST(GameProfiles, CorridorFacesUseDistinctTextures)
{
    // The first four objects of a corridor game are the floor,
    // ceiling and two walls of segment 0 — all different materials.
    Scene s = buildGameScene({Game::Riddick, 640, 480});
    ASSERT_GE(s.objects.size(), 4u);
    std::set<u32> base_tex;
    for (int i = 0; i < 4; ++i)
        base_tex.insert(s.objects[size_t(i)].textureId);
    EXPECT_EQ(base_tex.size(), 4u);
}

// --- One texture store per level ------------------------------------

/** Bitwise equality of trivially copyable geometry (Vertex, Mat4). */
template <class T>
bool
sameBits(const T *a, const T *b, size_t n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

void
expectSameObjects(const Scene &a, const Scene &b)
{
    ASSERT_EQ(a.objects.size(), b.objects.size());
    for (size_t i = 0; i < a.objects.size(); ++i) {
        SCOPED_TRACE("object " + std::to_string(i));
        const SceneObject &oa = a.objects[i];
        const SceneObject &ob = b.objects[i];
        EXPECT_EQ(oa.textureId, ob.textureId);
        EXPECT_EQ(oa.detailTextureId, ob.detailTextureId);
        EXPECT_EQ(oa.detailUvScale, ob.detailUvScale);
        EXPECT_TRUE(sameBits(&oa.model, &ob.model, 1));
        EXPECT_EQ(oa.mesh.indices, ob.mesh.indices);
        ASSERT_EQ(oa.mesh.verts.size(), ob.mesh.verts.size());
        EXPECT_TRUE(sameBits(oa.mesh.verts.data(), ob.mesh.verts.data(),
                             oa.mesh.verts.size()));
    }
}

void
expectSameStore(const TextureStore &a, const TextureStore &b)
{
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.totalBytes(), b.totalBytes());
    for (u32 t = 0; t < a.count(); ++t) {
        const Texture &ta = a.texture(t);
        const Texture &tb = b.texture(t);
        EXPECT_EQ(ta.name(), tb.name());
        EXPECT_EQ(ta.baseAddr(), tb.baseAddr());
        EXPECT_EQ(ta.byteSize(), tb.byteSize());
        EXPECT_TRUE(ta.level(0).pixels() == tb.level(0).pixels())
            << ta.name();
    }
}

TEST(GameProfiles, AdoptedStoreBuildsTheSameFrame)
{
    // A later frame (at another resolution, too) that adopts the store
    // of an earlier build equals the same frame built from scratch:
    // same objects, camera and texture store, and the store is the
    // adopted one, not a copy.
    for (Game g : {Game::Doom3, Game::Fear, Game::HalfLife2, Game::Riddick,
                   Game::Wolfenstein}) {
        SCOPED_TRACE(gameName(g));
        Scene first = buildGameScene({g, 320, 240}, 0);
        Scene adopted =
            buildGameScene({g, 640, 480}, 4, 0x7e01d, first.textures);
        Scene fresh = buildGameScene({g, 640, 480}, 4);
        EXPECT_EQ(adopted.textures, first.textures);
        EXPECT_EQ(adopted.name, fresh.name);
        EXPECT_EQ(adopted.settings.width, fresh.settings.width);
        EXPECT_EQ(adopted.settings.maxAniso, fresh.settings.maxAniso);
        EXPECT_TRUE(sameBits(&adopted.camera, &fresh.camera, 1));
        expectSameObjects(adopted, fresh);
        expectSameStore(*adopted.textures, *fresh.textures);
    }
}

TEST(GameProfilesDeath, AdoptingAnotherLevelsStorePanics)
{
    // Another seed: the store's first texture is the same material and
    // size, drawn from another seed. Another game: another material.
    // The message names the texture the level expects and the one the
    // store holds.
    Workload riddick{Game::Riddick, 160, 120};
    Scene seed1 = buildGameScene(riddick, 0, 1);
    Scene seed2 = buildGameScene(riddick, 0, 2);
    Scene wolf = buildGameScene({Game::Wolfenstein, 160, 120}, 0, 1);
    std::string want = seed1.textures->texture(0).name();
    EXPECT_DEATH(buildGameScene(riddick, 1, 1, seed2.textures),
                 "texture 0 should be '" + want + "', the store has '" +
                     seed2.textures->texture(0).name() + "'");
    EXPECT_DEATH(buildGameScene(riddick, 1, 1, wolf.textures),
                 "should be '" + want + "', the store has '" +
                     wolf.textures->texture(0).name() + "'");

    // A store that holds more than the level asks for is not its own.
    auto longer = std::make_shared<TextureStore>();
    for (u32 t = 0; t < seed1.textures->count(); ++t)
        longer->add(seed1.textures->texture(t).name(), TextureImage(4, 4));
    longer->add("extra", TextureImage(4, 4));
    EXPECT_DEATH(buildGameScene(riddick, 1, 1, longer),
                 "the store holds 8 textures, the level has 7");
}

} // namespace
} // namespace texpim
