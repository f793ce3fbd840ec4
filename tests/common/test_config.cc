#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/logging.hh"

namespace texpim {
namespace {

TEST(Config, SetAndGetTyped)
{
    Config c;
    c.set("n", "42");
    c.set("pi", "3.5");
    c.set("flag", "true");
    c.set("name", "doom3");
    EXPECT_EQ(c.getU64("n", 0), 42u);
    EXPECT_DOUBLE_EQ(c.getDouble("pi", 0.0), 3.5);
    EXPECT_TRUE(c.getBool("flag", false));
    EXPECT_EQ(c.getString("name", ""), "doom3");
}

TEST(Config, DefaultsWhenMissing)
{
    Config c;
    EXPECT_EQ(c.getU64("absent", 7), 7u);
    EXPECT_DOUBLE_EQ(c.getDouble("absent", 1.5), 1.5);
    EXPECT_FALSE(c.getBool("absent", false));
    EXPECT_EQ(c.getString("absent", "x"), "x");
}

TEST(Config, ParseItemTrimsWhitespace)
{
    Config c;
    c.parseItem("  key =  value with spaces  ");
    EXPECT_EQ(c.getString("key", ""), "value with spaces");
}

TEST(Config, BooleanSpellings)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on", "TRUE", "Yes"}) {
        c.set("k", t);
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off", "OFF"}) {
        c.set("k", f);
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, HexIntegers)
{
    Config c;
    c.set("addr", "0x1000");
    EXPECT_EQ(c.getU64("addr", 0), 0x1000u);
}

TEST(Config, ParseItemSplitsOnFirstEqualsOnly)
{
    // Values may themselves contain '=' (e.g. output paths).
    Config c;
    c.parseItem("out=frames/a=b.ppm");
    EXPECT_EQ(c.getString("out", ""), "frames/a=b.ppm");
    c.parseItem("expr = x == y ");
    EXPECT_EQ(c.getString("expr", ""), "x == y");
}

TEST(Config, EmptyValueIsStoredAsEmptyString)
{
    // "key=" is legal (e.g. clearing an output path on the CLI); the
    // key exists with an empty value and string lookups return "".
    Config c;
    c.parseItem("out=");
    EXPECT_TRUE(c.has("out"));
    EXPECT_EQ(c.getString("out", "fallback"), "");
    c.parseItem("trace_out =   ");
    EXPECT_EQ(c.getString("trace_out", "fallback"), "");
}

TEST(Config, DoubleEqualsSplitsOnTheFirst)
{
    // "key==v" is key "key", value "=v" — the first '=' is the
    // separator and everything after belongs to the value.
    Config c;
    c.parseItem("key==v");
    EXPECT_EQ(c.getString("key", ""), "=v");
    c.parseItem("a===");
    EXPECT_EQ(c.getString("a", ""), "==");
}

TEST(Config, DuplicateKeysLastOneWins)
{
    // A later CLI item overrides an earlier one: the most recent
    // assignment is the one queries see, with no duplicates left in
    // keys().
    Config c;
    c.parseItem("design=bpim");
    c.parseItem("design=atfim");
    EXPECT_EQ(c.getString("design", ""), "atfim");
    for (const char *item : {"n = 1", "n = 2", "n = 3"})
        c.parseItem(item);
    EXPECT_EQ(c.getU64("n", 0), 3u);
    EXPECT_EQ(c.keys().size(), 2u);
}

TEST(ConfigDeath, EmptyKeyIsFatal)
{
    Config c;
    EXPECT_EXIT({ c.parseItem("=value"); }, testing::ExitedWithCode(1),
                "empty key");
    EXPECT_EXIT({ c.parseItem("  = x"); }, testing::ExitedWithCode(1),
                "empty key");
}

TEST(Config, UnknownKeysAreStoredButNeverQueriedKeys)
{
    Config c;
    c.set("design", "atfim");
    c.set("desing", "atfim"); // typo: never queried
    (void)c.getString("design", "");
    auto unknown = c.unknownKeys();
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "desing");

    // The explicit known list also clears a key.
    EXPECT_TRUE(c.unknownKeys({"desing"}).empty());
}

TEST(Config, SuggestKeyFindsCloseCandidate)
{
    Config c;
    c.set("design", "atfim");
    (void)c.getString("design", "");
    EXPECT_EQ(c.suggestKey("desing"), "design");
    EXPECT_EQ(c.suggestKey("sweep_jurnal", {"sweep_journal"}),
              "sweep_journal");
    // Nothing close: no suggestion.
    EXPECT_EQ(c.suggestKey("completely_different_key"), "");
}

TEST(ConfigDeath, CheckKnownKeysStrictIsFatalWithSuggestion)
{
    Config c;
    c.set("design", "atfim");
    c.set("desing", "atfim");
    (void)c.getString("design", "");
    EXPECT_EXIT({ c.checkKnownKeys(); },
                testing::ExitedWithCode(1),
                "unknown config key 'desing'.*did you mean 'design'");
}

TEST(ConfigDeath, IntErrorReportsKeyAndRawValue)
{
    // Junk, a sign or overflow: nothing wraps or saturates.
    for (const char *raw : {"thirty-two", "-1", "-0", "18446744073709551616",
                            "99999999999999999999", "0x10000000000000000",
                            "12px", ""}) {
        SCOPED_TRACE(raw);
        Config c;
        c.set("seed", raw);
        EXPECT_EXIT({ (void)c.getU64("seed", 0); },
                    testing::ExitedWithCode(1),
                    std::string("seed must be an unsigned 64-bit integer, "
                                "got ") +
                        raw + "\n");
    }
}

TEST(ConfigDeath, DoubleErrorReportsKeyAndRawValue)
{
    Config c;
    c.set("fault_link_ber", "1e-3x");
    EXPECT_EXIT({ (void)c.getDouble("fault_link_ber", 0.0); },
                testing::ExitedWithCode(1),
                "'fault_link_ber' = '1e-3x' is not a number");
}

TEST(ConfigDeath, BoolErrorReportsKeyAndRawValue)
{
    Config c;
    c.set("compress", "Maybe");
    EXPECT_EXIT({ (void)c.getBool("compress", false); },
                testing::ExitedWithCode(1),
                "'compress' = 'Maybe' is not a boolean");
}

TEST(Config, GetUnsignedReadsInRangeValues)
{
    Config c;
    EXPECT_EQ(c.getUnsigned("width", 640, 1, 65536), 640u);
    c.set("width", "65536");
    EXPECT_EQ(c.getUnsigned("width", 640, 1, 65536), 65536u);
    c.set("width", "0x40"); // hex, as for every integer key
    EXPECT_EQ(c.getUnsigned("width", 640, 1, 65536), 64u);
    c.set("frame", "4294967295");
    EXPECT_EQ(c.getUnsigned("frame", 3, 0, 4294967295u), 4294967295u);
    c.set("frame", "0");
    EXPECT_EQ(c.getUnsigned("frame", 3, 0, 4294967295u), 0u);
}

TEST(ConfigDeath, GetUnsignedRejectsOutOfRangeAndMalformed)
{
    // Every failure names the key, the range and the raw value.
    const struct
    {
        const char *key, *raw;
        unsigned lo, hi;
    } cases[] = {
        {"width", "0", 1, 65536},
        {"height", "65537", 1, 65536},
        {"max_aniso", "33", 1, 32},
        {"frame", "-1", 0, 4294967295u},
        {"frame", "4294967296", 0, 4294967295u},
        {"frame", "99999999999999999999", 0, 4294967295u},
        {"width", "abc", 1, 65536},
        {"width", "12px", 1, 65536},
        {"width", "", 1, 65536},
    };
    for (const auto &k : cases) {
        SCOPED_TRACE(std::string(k.key) + "=" + k.raw);
        Config c;
        c.set(k.key, k.raw);
        EXPECT_EXIT({ (void)c.getUnsigned(k.key, 1, k.lo, k.hi); },
                    testing::ExitedWithCode(1),
                    std::string(k.key) + " must be between " +
                        std::to_string(k.lo) + " and " +
                        std::to_string(k.hi) + ", got " + k.raw + "\n");
    }
}

TEST(Config, GetU64ReadsTheWholeRange)
{
    Config c;
    c.set("seed", "0");
    EXPECT_EQ(c.getU64("seed", 1), 0u);
    c.set("seed", "9223372036854775808"); // 2^63: past any i64
    EXPECT_EQ(c.getU64("seed", 1), u64(1) << 63);
    c.set("seed", "18446744073709551615");
    EXPECT_EQ(c.getU64("seed", 1), ~u64(0));
    c.set("seed", "0xffffffffffffffff");
    EXPECT_EQ(c.getU64("seed", 1), ~u64(0));
}

TEST(ConfigDeath, MalformedNumberIsFatal)
{
    Config c;
    c.set("n", "abc");
    EXPECT_EXIT({ (void)c.getU64("n", 0); }, testing::ExitedWithCode(1),
                "n must be an unsigned 64-bit integer, got abc");
}

TEST(ConfigDeath, MalformedItemIsFatal)
{
    Config c;
    EXPECT_EXIT({ c.parseItem("no-equals-sign"); },
                testing::ExitedWithCode(1), "malformed config item");
}

} // namespace
} // namespace texpim
