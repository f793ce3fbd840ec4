#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "common/stat_export.hh"
#include "common/stat_registry.hh"
#include "common/trace_events.hh"

namespace texpim {
namespace {

/** The tracer is a process-wide singleton; make each test leave it
 *  idle so tests stay order-independent. */
class TraceEventsTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        if (TraceEvents::active())
            TraceEvents::instance().disable();
    }
};

TEST_F(TraceEventsTest, InactiveByDefaultAndMacrosAreNoOps)
{
    EXPECT_FALSE(TraceEvents::active());
    // With the tracer inactive these must not record anything.
    TEXPIM_TRACE_COMPLETE("cat", "x", 0, 0, 5);
    TEXPIM_TRACE_INSTANT("cat", "i", 0, 1);
    TEXPIM_TRACE_COUNTER("cat", "c", 2, 1.0);
    TraceEvents::instance().enable("", 100);
    EXPECT_EQ(TraceEvents::instance().recorded(), 0u);
}

TEST_F(TraceEventsTest, MacrosForwardOnlyWhenCompiledInAndActive)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 100);
    TEXPIM_TRACE_INSTANT("cat", "hit", 0, 1);
    EXPECT_EQ(t.recorded(), 1u);
    t.disable();
}

TEST_F(TraceEventsTest, RecordsEveryEventKind)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 100);
    EXPECT_TRUE(TraceEvents::active());

    t.complete("raster", "tile", 3, 100, 150);
    t.instant("dram", "miss", 2, 130);
    t.counter("frame", "frags", 140, 9.5);
    EXPECT_EQ(t.recorded(), 3u);

    json::Value doc = json::parse(t.toJson());
    const json::Value &evs = doc.at("traceEvents");
    ASSERT_EQ(evs.array.size(), 3u);

    const json::Value &x = evs.array[0];
    EXPECT_EQ(x.at("ph").string, "X");
    EXPECT_EQ(x.at("cat").string, "raster");
    EXPECT_EQ(x.at("name").string, "tile");
    EXPECT_DOUBLE_EQ(x.at("tid").number, 3.0);
    EXPECT_DOUBLE_EQ(x.at("ts").number, 100.0);
    EXPECT_DOUBLE_EQ(x.at("dur").number, 150.0);

    const json::Value &i = evs.array[1];
    EXPECT_EQ(i.at("ph").string, "i");
    EXPECT_EQ(i.at("s").string, "t");

    const json::Value &c = evs.array[2];
    EXPECT_EQ(c.at("ph").string, "C");
    EXPECT_DOUBLE_EQ(c.at("args").at("value").number, 9.5);

    EXPECT_EQ(doc.at("otherData").at("clock").string, "gpu-core-cycles");
}

TEST_F(TraceEventsTest, DisableWritesTheFileAndStopsRecording)
{
    std::string path = ::testing::TempDir() + "/texpim_trace_test.json";
    TraceEvents &t = TraceEvents::instance();
    t.enable(path, 100);
    t.complete("cat", "work", 1, 10, 5);
    t.disable();
    EXPECT_FALSE(TraceEvents::active());

    std::ifstream f(path);
    ASSERT_TRUE(f.good());
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    json::Value doc = json::parse(text);
    ASSERT_EQ(doc.at("traceEvents").array.size(), 1u);
    EXPECT_EQ(doc.at("traceEvents").array[0].at("name").string, "work");
    std::remove(path.c_str());

    // Macros are dead again after disable().
    TEXPIM_TRACE_INSTANT("cat", "late", 0, 99);
    t.enable("", 100);
    EXPECT_EQ(t.recorded(), 0u);
}

TEST_F(TraceEventsTest, ReenableResetsBufferAndDropCount)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 1);
    t.instant("c", "a", 0, 0);
    t.instant("c", "b", 0, 1); // dropped
    EXPECT_EQ(t.dropped(), 1u);
    t.disable();

    t.enable("", 10);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST_F(TraceEventsTest, DisableFoldsDropCountIntoTheStatRegistry)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 1);
    StatRegistry::Snapshot before = StatRegistry::instance().snapshot();
    t.instant("c", "a", 0, 0);
    t.instant("c", "b", 0, 1); // dropped
    t.instant("c", "c", 0, 2); // dropped
    t.disable();

    // The drop total survives the tracer's death as a registry
    // counter, so stats exports show the truncation.
    StatRegistry::Snapshot d = StatRegistry::instance().delta(before);
    double folded = 0.0;
    for (const auto &[key, v] : d)
        if (key.find("dropped_events") != std::string::npos)
            folded += v;
    EXPECT_DOUBLE_EQ(folded, 2.0);
}

TEST_F(TraceEventsTest, TruncationAppendsAGlobalInstantMarker)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 2);
    t.instant("c", "a", 0, 10);
    t.instant("c", "b", 0, 20);
    t.instant("c", "late", 0, 30); // dropped

    json::Value doc = json::parse(t.toJson());
    const auto &evs = doc.at("traceEvents").array;
    ASSERT_EQ(evs.size(), 3u); // 2 recorded + the marker
    const json::Value &m = evs.back();
    EXPECT_EQ(m.at("ph").string, "i");
    EXPECT_EQ(m.at("name").string, "event_cap_truncated");
    EXPECT_EQ(m.at("s").string, "g"); // global-scoped: always visible
    // Anchored at the last recorded event so it lands in view.
    EXPECT_DOUBLE_EQ(m.at("ts").number, 20.0);
    EXPECT_DOUBLE_EQ(m.at("args").at("dropped_events").number, 1.0);
}

TEST_F(TraceEventsTest, FlowAndNamedCounterEventShapes)
{
    TraceEvents &t = TraceEvents::instance();
    t.enable("", 100);
    t.flowBegin("phase", "tile", 1, 10, 42);
    t.flowEnd("phase", "tile", 2, 50, 42);
    t.counterNamed("util", "vault3.bytes", 64, 4096.0);

    json::Value doc = json::parse(t.toJson());
    const auto &evs = doc.at("traceEvents").array;
    ASSERT_EQ(evs.size(), 3u);
    // Flow start/finish pair sharing the id that links them.
    EXPECT_EQ(evs[0].at("ph").string, "s");
    EXPECT_DOUBLE_EQ(evs[0].at("id").number, 42.0);
    EXPECT_EQ(evs[1].at("ph").string, "f");
    EXPECT_DOUBLE_EQ(evs[1].at("id").number, 42.0);
    EXPECT_EQ(evs[1].at("bp").string, "e"); // bind to enclosing slice
    // Runtime-named counter sample ("C") with its interned name.
    EXPECT_EQ(evs[2].at("ph").string, "C");
    EXPECT_EQ(evs[2].at("name").string, "vault3.bytes");
    EXPECT_DOUBLE_EQ(evs[2].at("ts").number, 64.0);
    EXPECT_DOUBLE_EQ(evs[2].at("args").at("value").number, 4096.0);
}

} // namespace
} // namespace texpim
