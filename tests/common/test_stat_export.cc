#include <gtest/gtest.h>

#include <sstream>

#include "common/stat_export.hh"

namespace texpim {
namespace {

/** Find a group object by name in a parsed texpim-stats-v1 document. */
const json::Value *
findGroup(const json::Value &doc, const std::string &name)
{
    for (const json::Value &g : doc.at("groups").array)
        if (g.at("name").string == name)
            return &g;
    return nullptr;
}

const json::Value *
findNamed(const json::Value &arr, const std::string &name)
{
    for (const json::Value &v : arr.array)
        if (v.at("name").string == name)
            return &v;
    return nullptr;
}

TEST(JsonWriter, ComposesNestedStructures)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("a", 1);
    w.key("b").beginArray().value(2.5).value("x").value(true).endArray();
    w.key("c").beginObject().keyValue("d", u64(7)).endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\"a\":1,\"b\":[2.5,\"x\",true],\"c\":{\"d\":7}}");
}

TEST(JsonWriter, EscapesSpecials)
{
    JsonWriter w;
    w.value(std::string("q\"b\\s\nnl\tt") + '\x01');
    EXPECT_EQ(w.str(), "\"q\\\"b\\\\s\\nnl\\tt\\u0001\"");
}

TEST(JsonParse, RoundTripsWriterOutput)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("num", 3.25);
    w.keyValue("neg", i64(-4));
    w.keyValue("str", "he\"llo\n");
    w.keyValue("flag", false);
    w.key("arr").beginArray().value(1).value(2).endArray();
    w.endObject();

    json::Value v = json::parse(w.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.at("num").number, 3.25);
    EXPECT_DOUBLE_EQ(v.at("neg").number, -4.0);
    EXPECT_EQ(v.at("str").string, "he\"llo\n");
    EXPECT_FALSE(v.at("flag").boolean);
    ASSERT_EQ(v.at("arr").array.size(), 2u);
    EXPECT_DOUBLE_EQ(v.at("arr").array[1].number, 2.0);
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(JsonParseDeath, MalformedInputPanics)
{
    EXPECT_DEATH({ (void)json::parse("{\"a\":}"); }, "");
    EXPECT_DEATH({ (void)json::parse("[1, 2"); }, "");
    EXPECT_DEATH({ (void)json::parse("{} trailing"); }, "trailing");
}

TEST(StatExport, JsonRoundTripCoversEveryStatKind)
{
    StatGroup g("export_grp");
    g.counter("hits", "cache hits") += 41;
    StatAverage &lat = g.average("lat", "latency");
    lat.sample(10.0);
    lat.sample(20.0);
    StatHistogram &h = g.histogram("dist", 0.0, 10.0, 5, "a distribution");
    h.sample(1.0);
    h.sample(3.0);
    h.sample(9.0);

    json::Value doc = json::parse(statsToJson());
    EXPECT_EQ(doc.at("schema").string, "texpim-stats-v1");
    const json::Value *grp = findGroup(doc, "export_grp");
    ASSERT_NE(grp, nullptr);

    const json::Value *c = findNamed(grp->at("counters"), "hits");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->at("value").number, 41.0);
    EXPECT_EQ(c->at("desc").string, "cache hits");

    const json::Value *a = findNamed(grp->at("averages"), "lat");
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->at("mean").number, 15.0);
    EXPECT_DOUBLE_EQ(a->at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(a->at("sum").number, 30.0);
    EXPECT_EQ(a->at("desc").string, "latency");

    const json::Value *hist = findNamed(grp->at("histograms"), "dist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->at("lo").number, 0.0);
    EXPECT_DOUBLE_EQ(hist->at("hi").number, 10.0);
    EXPECT_DOUBLE_EQ(hist->at("samples").number, 3.0);
    EXPECT_DOUBLE_EQ(hist->at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(hist->at("max").number, 9.0);
    const json::Value &buckets = hist->at("buckets");
    ASSERT_EQ(buckets.array.size(), 5u);
    EXPECT_DOUBLE_EQ(buckets.array[0].number, 1.0); // 1.0
    EXPECT_DOUBLE_EQ(buckets.array[1].number, 1.0); // 3.0
    EXPECT_DOUBLE_EQ(buckets.array[4].number, 1.0); // 9.0
    // Percentiles are exported and match the histogram's own numbers.
    EXPECT_DOUBLE_EQ(hist->at("p50").number, h.percentile(0.50));
    EXPECT_DOUBLE_EQ(hist->at("p95").number, h.percentile(0.95));
    EXPECT_DOUBLE_EQ(hist->at("p99").number, h.percentile(0.99));
    EXPECT_EQ(hist->at("desc").string, "a distribution");
}

} // namespace
} // namespace texpim
