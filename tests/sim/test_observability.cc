#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/stat_export.hh"
#include "common/stat_registry.hh"
#include "common/trace_events.hh"
#include "sim/simulator.hh"

namespace texpim {
namespace {

/** A tiny frame that still drives rasterization, texturing and the
 *  memory system (and the PIM paths when the design has them). */
Scene
tinyScene()
{
    Workload wl{Game::Riddick, 96, 64};
    Scene s = buildGameScene(wl, 3);
    s.settings.maxAniso = 8;
    return s;
}

SimResult
renderTraced(Design d, const std::string &trace_path)
{
    SimConfig cfg;
    cfg.design = d;
    RenderingSimulator sim(cfg);
    TraceEvents::instance().enable(trace_path);
    SimResult r = sim.renderScene(tinyScene());
    TraceEvents::instance().disable();
    return r;
}

class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        if (TraceEvents::active())
            TraceEvents::instance().disable();
    }
};

TEST_F(ObservabilityTest, TraceIsWellFormedBalancedAndMultiCategory)
{
    renderTraced(Design::ATfim, "");
    json::Value doc = json::parse(TraceEvents::instance().toJson());

    std::set<std::string> cats, durations;
    u64 begin_end = 0;
    const json::Value &evs = doc.at("traceEvents");
    ASSERT_FALSE(evs.array.empty());
    for (const json::Value &e : evs.array) {
        cats.insert(e.at("cat").string);
        const std::string &ph = e.at("ph").string;
        if (ph == "X") {
            durations.insert(e.at("name").string);
            EXPECT_EQ(e.at("dur").kind, json::Value::Kind::Number);
        } else if (ph == "B" || ph == "E") {
            ++begin_end;
        }
        // Every event carries a timestamp and a track.
        EXPECT_EQ(e.at("ts").kind, json::Value::Kind::Number);
        EXPECT_EQ(e.at("tid").kind, json::Value::Kind::Number);
    }
    // Every duration is one X event, so nothing can come unbalanced.
    EXPECT_EQ(begin_end, 0u);
    for (const char *name : {"tile", "geometry_phase", "render_frame"})
        EXPECT_TRUE(durations.count(name)) << name;
    // The A-TFIM design exercises rasterization, per-frame spans, the
    // HMC vaults and the in-memory filtering logic.
    EXPECT_GE(cats.size(), 4u) << "categories seen: " << cats.size();
    EXPECT_TRUE(cats.count("raster"));
    EXPECT_TRUE(cats.count("frame"));
    EXPECT_TRUE(cats.count("dram"));
    EXPECT_TRUE(cats.count("pim"));
}

TEST_F(ObservabilityTest, BaselineTraceCoversTexturePath)
{
    renderTraced(Design::Baseline, "");
    json::Value doc = json::parse(TraceEvents::instance().toJson());
    std::set<std::string> cats;
    for (const json::Value &e : doc.at("traceEvents").array)
        cats.insert(e.at("cat").string);
    EXPECT_TRUE(cats.count("raster"));
    EXPECT_TRUE(cats.count("texture"));
    EXPECT_TRUE(cats.count("dram"));
    EXPECT_TRUE(cats.count("frame"));
}

TEST_F(ObservabilityTest, TracingDoesNotChangeSimulatedTiming)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    Scene s = tinyScene();

    RenderingSimulator plain(cfg);
    SimResult untraced = plain.renderScene(s);

    SimResult traced = renderTraced(Design::Baseline, "");

    EXPECT_EQ(untraced.frame.frameCycles, traced.frame.frameCycles);
    EXPECT_EQ(untraced.textureFilterCycles, traced.textureFilterCycles);
    EXPECT_EQ(untraced.offChipTotalBytes, traced.offChipTotalBytes);
}

TEST_F(ObservabilityTest, RegistryExportCoversTheWholePipeline)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator sim(cfg);
    (void)sim.renderScene(tinyScene());

    json::Value doc = json::parse(statsToJson());
    EXPECT_EQ(doc.at("schema").string, "texpim-stats-v1");

    std::set<std::string> names;
    bool renderer_has_hist = false;
    for (const json::Value &g : doc.at("groups").array) {
        names.insert(g.at("name").string);
        if (g.at("name").string == "renderer") {
            for (const json::Value &h : g.at("histograms").array) {
                if (h.at("name").string != "tile_cycles")
                    continue;
                renderer_has_hist = true;
                EXPECT_GT(h.at("samples").number, 0.0);
                EXPECT_GE(h.at("p95").number, h.at("p50").number);
                EXPECT_FALSE(h.at("buckets").array.empty());
            }
        }
    }
    // Renderer, memory system and texture path all present.
    EXPECT_TRUE(names.count("renderer"));
    EXPECT_TRUE(names.count("gddr5"));
    EXPECT_TRUE(names.count("tex_host"));
    EXPECT_TRUE(renderer_has_hist);
}

TEST_F(ObservabilityTest, PerFrameSnapshotDeltaTracksOneFrame)
{
    SimConfig cfg;
    cfg.design = Design::Baseline;
    RenderingSimulator sim(cfg);

    // Snapshot the freshly built (zeroed) pipeline, render one frame,
    // and the registry-level delta is exactly that frame's work.
    StatRegistry &reg = StatRegistry::instance();
    StatRegistry::Snapshot before = reg.snapshot();
    SimResult r = sim.renderScene(tinyScene());

    StatRegistry::Snapshot d = reg.delta(before);
    EXPECT_DOUBLE_EQ(d.at("renderer.frames"), 1.0);
    EXPECT_DOUBLE_EQ(d.at("renderer.fragments_shaded"),
                     double(r.frame.fragmentsShaded));
}

TEST_F(ObservabilityTest, EveryRegisteredStatIsDescribed)
{
    // The compiler rejects an empty or missing description at each
    // registration call; this walks what actually got registered,
    // including stats registered lazily under run-time names (GDDR5's
    // per-traffic-class latencies), across every design and the
    // "sequence" group.
    const Workload wl{Game::Doom3, 32, 24};
    std::vector<std::unique_ptr<RenderingSimulator>> sims;
    for (Design d : {Design::Baseline, Design::BPim, Design::STfim,
                     Design::ATfim}) {
        SimConfig cfg;
        cfg.design = d;
        sims.push_back(std::make_unique<RenderingSimulator>(cfg));
        (void)sims.back()->renderScene(buildGameScene(wl, 3));
    }
    SimConfig cfg;
    cfg.design = Design::ATfim;
    sims.push_back(std::make_unique<RenderingSimulator>(cfg));
    (void)sims.back()->renderSequence(wl, 2);

    std::set<std::string> seen;
    for (const auto &[display, g] : StatRegistry::instance().groups()) {
        auto check = [&](const std::string &n) {
            seen.insert(display + "." + n);
            EXPECT_FALSE(g->description(n).empty()) << display << "." << n;
        };
        for (const auto &kv : g->counters())
            check(kv.first);
        for (const auto &kv : g->averages())
            check(kv.first);
        for (const auto &kv : g->histograms())
            check(kv.first);
    }
    EXPECT_TRUE(seen.count("gddr5.latency_texture"));
    EXPECT_TRUE(seen.count("sequence.frames"));
}

} // namespace
} // namespace texpim
