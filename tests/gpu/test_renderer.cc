#include <gtest/gtest.h>

#include <string>

#include "gpu/host_texture_path.hh"
#include "gpu/renderer.hh"
#include "mem/gddr5.hh"
#include "scene/game_profiles.hh"
#include "scene/procedural_texture.hh"
#include "sim/runner/experiment_runner.hh"

namespace texpim {
namespace {

/** A minimal scene: one textured quad facing the camera. */
Scene
quadScene(unsigned w, unsigned h, Material mat = Material::Checker)
{
    Scene s;
    s.name = "quad";
    u32 tex = s.textures->add("tex", generateTexture(mat, 64, 1));
    SceneObject o;
    o.mesh = makeQuad({-1, -1, 0}, {2, 0, 0}, {0, 2, 0}, 1.0f);
    o.textureId = tex;
    s.objects.push_back(std::move(o));
    s.camera.eye = {0, 0, 2};
    s.camera.center = {0, 0, 0};
    s.settings.width = w;
    s.settings.height = h;
    s.settings.maxAniso = 4;
    return s;
}

struct Rig
{
    Rig() : mem(Gddr5Params{}), path(GpuParams{}, mem),
            renderer(GpuParams{}, mem, path)
    {}

    Gddr5Memory mem;
    HostTexturePath path;
    Renderer renderer;
};

TEST(Renderer, RendersVisiblePixels)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    FrameStats fs = rig.renderer.renderFrame(s, fb);

    EXPECT_GT(fs.fragmentsShaded, 500u);
    EXPECT_GT(fs.frameCycles, fs.geometryCycles);
    EXPECT_GT(fs.texRequests, 0u);

    // The quad center is a checker cell, not the black clear color.
    Rgba8 center = fb.pixel(32, 32);
    Rgba8 corner = fb.pixel(0, 0);
    EXPECT_TRUE(corner == (Rgba8{0, 0, 0, 255}));
    EXPECT_FALSE(center == corner);
}

TEST(Renderer, DepthBufferHoldsQuadDepth)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    rig.renderer.renderFrame(s, fb);
    EXPECT_LT(fb.depth(32, 32), 1.0f);
    EXPECT_FLOAT_EQ(fb.depth(0, 0), 1.0f); // background untouched
}

TEST(Renderer, EarlyZKillsOccludedFragments)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    // A second quad behind the first, fully occluded. Per-tile
    // front-to-back sorting shades the near one first.
    SceneObject back;
    back.mesh = makeQuad({-1, -1, -1}, {2, 0, 0}, {0, 2, 0}, 1.0f);
    back.textureId = s.objects[0].textureId;
    s.objects.push_back(std::move(back));

    FrameBuffer fb(64, 64);
    FrameStats fs = rig.renderer.renderFrame(s, fb);
    EXPECT_GT(fs.fragmentsEarlyZKilled + fs.hierZTrianglesSkipped, 0u);
}

TEST(Renderer, DetailLayerDoublesTextureRequests)
{
    Rig rig_a, rig_b;
    Scene plain = quadScene(64, 64);
    FrameBuffer fb1(64, 64);
    FrameStats without = rig_a.renderer.renderFrame(plain, fb1);

    Scene with = quadScene(64, 64);
    u32 det = with.textures->add("det",
                                 generateTexture(Material::Stone, 64, 2));
    with.objects[0].detailTextureId = i32(det);
    FrameBuffer fb2(64, 64);
    FrameStats stats = rig_b.renderer.renderFrame(with, fb2);

    EXPECT_NEAR(double(stats.texRequests), 2.0 * double(without.texRequests),
                double(without.texRequests) * 0.05);
    // And the detail layer changes the image.
    EXPECT_FALSE(fb1.pixel(32, 32) == fb2.pixel(32, 32));
}

TEST(Renderer, TrafficTouchesAllClasses)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(64, 64);
    rig.renderer.renderFrame(s, fb);
    const TrafficMeter &t = rig.mem.offChipTraffic();
    EXPECT_GT(t.bytes(TrafficClass::Texture), 0u);
    EXPECT_GT(t.bytes(TrafficClass::Geometry), 0u);
    EXPECT_GT(t.bytes(TrafficClass::ZTest), 0u);
    EXPECT_GT(t.bytes(TrafficClass::ColorBuffer), 0u);
    EXPECT_GT(t.bytes(TrafficClass::FrameBuffer), 0u);
}

TEST(Renderer, ObliqueSurfaceRaisesAnisotropyAndAngle)
{
    Rig rig_a, rig_b;
    Scene facing = quadScene(64, 64);
    FrameBuffer fb1(64, 64);
    FrameStats f = rig_a.renderer.renderFrame(facing, fb1);

    Scene floor;
    floor.name = "floor";
    u32 tex = floor.textures->add(
        "tex", generateTexture(Material::Checker, 256, 1));
    SceneObject o;
    o.mesh = makeQuadUv({-5, 0, 5}, {10, 0, 0}, {0, 0, -60}, 4.0f, 24.0f);
    o.textureId = tex;
    floor.objects.push_back(std::move(o));
    floor.camera.eye = {0, 0.5f, 2};
    floor.camera.center = {0, 0.4f, 0};
    floor.settings.width = 64;
    floor.settings.height = 64;
    floor.settings.maxAniso = 16;
    FrameBuffer fb2(64, 64);
    FrameStats g = rig_b.renderer.renderFrame(floor, fb2);

    EXPECT_GT(g.avgAnisoRatio, f.avgAnisoRatio);
    EXPECT_GT(g.avgCameraAngleRad, f.avgCameraAngleRad);
}

TEST(RendererDeath, MismatchedFramebufferPanics)
{
    Rig rig;
    Scene s = quadScene(64, 64);
    FrameBuffer fb(32, 32);
    EXPECT_DEATH({ rig.renderer.renderFrame(s, fb); },
                 "does not match scene resolution");
}

// ------------------------------------------- sim-level record stream

ExperimentSpec
equivalenceSpec(Design d, unsigned threads)
{
    ExperimentSpec spec;
    spec.config.design = d;
    spec.config.gpu.schedule = GpuParams::Schedule::RoundRobin;
    spec.config.gpu.renderThreads = threads;
    spec.workload = Workload{Game::Doom3, 160, 120};
    spec.frame = 3;
    spec.seed = 0x7e01d;
    spec.maxAniso = 0;
    return spec;
}

ExperimentResult
runSpec(const ExperimentSpec &spec)
{
    SimContext ctx;
    SimContext::Scope scope(ctx);
    return ExperimentRunner::runOne(spec);
}

TEST(StreamEquivalence, RecordAccountingInvariantAcrossRenderThreads)
{
    // The record byte counts are pure functions of the (stable-ordered)
    // record arrays and the replay order, so they must not move with
    // the recorder count — the property that makes record_bytes a
    // meaningful metric at any thread setting.
    // threads=4 races the window's pool against the replay of the
    // same frame (the TSan configuration of this suite).
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        ExperimentResult ref = runSpec(equivalenceSpec(d, 1));
        EXPECT_GT(ref.result.frame.recordBytes, 0u);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(designName(d)) + " threads=" +
                         std::to_string(threads));
            ExperimentResult r = runSpec(equivalenceSpec(d, threads));
            EXPECT_EQ(r.result.frame.recordBytes,
                      ref.result.frame.recordBytes);
            EXPECT_EQ(r.result.frame.recordBytesDecoded,
                      ref.result.frame.recordBytesDecoded);
            EXPECT_EQ(r.result.frame.recordBytesPeak,
                      ref.result.frame.recordBytesPeak);
            EXPECT_EQ(r.imageFnv1a, ref.imageFnv1a);
        }
    }
}

TEST(StreamEquivalence, WindowPeakFitsBudgetAt640x480)
{
    // The live record of a streamed frame is one tile per cluster.
    // Budgets for the Doom3 640x480 frame 3 scene: the measured window
    // peak plus 10 % slack. The peak is a pure function of the scene
    // and the replay order, so this fails deterministically when the
    // record grows or the window widens, however noisy the host. Raise
    // a budget only with a DESIGN.md rationale.
    struct Budget
    {
        Design design;
        u64 measured; //!< recordBytesPeak when the budget was set
    };
    const Budget budgets[] = {
        {Design::Baseline, 1'098'844},
        {Design::ATfim, 6'426'304},
    };
    for (const Budget &b : budgets) {
        SCOPED_TRACE(designName(b.design));
        ExperimentSpec spec;
        spec.config.design = b.design;
        spec.config.gpu.renderThreads = 4;
        spec.workload = Workload{Game::Doom3, 640, 480};
        spec.frame = 3;
        spec.seed = 0x7e01d;
        spec.maxAniso = defaultMaxAniso(640);
        const FrameStats frame = runSpec(spec).result.frame;
        EXPECT_GT(frame.recordBytesPeak, 0u);
        EXPECT_LE(frame.recordBytesPeak, b.measured + b.measured / 10)
            << "peak " << frame.recordBytesPeak;
        // The window holds at most 1/16 of the frame's record.
        EXPECT_LE(frame.recordBytesPeak * 16, frame.recordBytesDecoded)
            << "peak " << frame.recordBytesPeak << " of "
            << frame.recordBytesDecoded;
    }
}

} // namespace
} // namespace texpim
