#include "common/stat_export.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"

namespace texpim {

namespace {

/** Shortest round-trippable formatting for a double (integers print
 *  without a trailing ".0" to keep the files small and diffable). */
std::string
formatNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u8(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(u8(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (need_comma_)
        out_ += ',';
    need_comma_ = false;
}

JsonWriter &
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    comma();
    out_ += '"';
    out_ += escape(k);
    out_ += "\":";
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    comma();
    out_ += formatNumber(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(u64 v)
{
    comma();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(i64 v)
{
    comma();
    out_ += std::to_string(v);
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    comma();
    out_ += v ? "true" : "false";
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::nullValue()
{
    comma();
    out_ += "null";
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    comma();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    need_comma_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

void
writeGroupJson(JsonWriter &w, const std::string &display, const StatGroup &g)
{
    w.beginObject();
    w.keyValue("name", display);

    w.key("counters").beginArray();
    for (const auto &kv : g.counters()) {
        w.beginObject();
        w.keyValue("name", kv.first);
        w.keyValue("value", kv.second.value());
        w.keyValue("desc", g.description(kv.first));
        w.endObject();
    }
    w.endArray();

    w.key("averages").beginArray();
    for (const auto &kv : g.averages()) {
        w.beginObject();
        w.keyValue("name", kv.first);
        w.keyValue("mean", kv.second.mean());
        w.keyValue("count", kv.second.count());
        w.keyValue("sum", kv.second.sum());
        w.keyValue("desc", g.description(kv.first));
        w.endObject();
    }
    w.endArray();

    w.key("histograms").beginArray();
    for (const auto &kv : g.histograms()) {
        const StatHistogram &h = kv.second;
        w.beginObject();
        w.keyValue("name", kv.first);
        w.keyValue("lo", h.lo());
        w.keyValue("hi", h.hi());
        w.keyValue("samples", h.samples());
        w.keyValue("mean", h.mean());
        w.keyValue("min", h.min());
        w.keyValue("max", h.max());
        w.keyValue("p50", h.percentile(0.50));
        w.keyValue("p95", h.percentile(0.95));
        w.keyValue("p99", h.percentile(0.99));
        w.key("buckets").beginArray();
        for (unsigned i = 0; i < h.buckets(); ++i)
            w.value(h.bucketCount(i));
        w.endArray();
        w.keyValue("desc", g.description(kv.first));
        w.endObject();
    }
    w.endArray();

    w.endObject();
}

std::string
statsToJson(const StatRegistry &reg)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-stats-v1");
    w.key("groups").beginArray();
    for (const auto &[display, g] : reg.groups())
        writeGroupJson(w, display, *g);
    w.endArray();
    w.endObject();
    return w.str();
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    if (!f)
        TEXPIM_FATAL("cannot open '", path, "' for writing");
    f << text;
    f.close();
    if (!f)
        TEXPIM_FATAL("error writing '", path, "'");
}

StatRegistry::Snapshot
mergeSnapshots(const std::vector<StatRegistry::Snapshot> &parts)
{
    StatRegistry::Snapshot out;
    for (const StatRegistry::Snapshot &part : parts) {
        for (const auto &kv : part)
            out[kv.first] += kv.second;
    }
    return out;
}

std::string
snapshotToJson(const StatRegistry::Snapshot &snap, u64 jobs)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-stats-merged-v1");
    w.keyValue("jobs", jobs);
    w.key("stats").beginObject();
    for (const auto &kv : snap)
        w.keyValue(kv.first, kv.second);
    w.endObject();
    w.endObject();
    return w.str();
}

namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &kv : object) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    TEXPIM_ASSERT(v != nullptr, "JSON object has no member '", key, "'");
    return *v;
}

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Value
    document()
    {
        Value v = value();
        skipWs();
        TEXPIM_ASSERT(pos_ == s_.size(),
                      "trailing garbage in JSON at offset ", pos_);
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() && std::isspace(u8(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        TEXPIM_ASSERT(pos_ < s_.size(), "unexpected end of JSON");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        TEXPIM_ASSERT(peek() == c, "expected '", c, "' at offset ", pos_,
                      ", found '", s_[pos_], "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Value
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return stringValue();
          case 't': case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    Value
    object()
    {
        expect('{');
        Value v;
        v.kind = Value::Kind::Object;
        if (consume('}'))
            return v;
        do {
            std::string k = rawString();
            expect(':');
            v.object.emplace_back(std::move(k), value());
        } while (consume(','));
        expect('}');
        return v;
    }

    Value
    array()
    {
        expect('[');
        Value v;
        v.kind = Value::Kind::Array;
        if (consume(']'))
            return v;
        do {
            v.array.push_back(value());
        } while (consume(','));
        expect(']');
        return v;
    }

    std::string
    rawString()
    {
        expect('"');
        std::string out;
        while (true) {
            TEXPIM_ASSERT(pos_ < s_.size(), "unterminated JSON string");
            char c = s_[pos_++];
            if (c == '"')
                break;
            if (c == '\\') {
                TEXPIM_ASSERT(pos_ < s_.size(), "unterminated escape");
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    TEXPIM_ASSERT(pos_ + 4 <= s_.size(), "short \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= unsigned(h - 'A' + 10);
                        else
                            TEXPIM_PANIC("bad hex digit in \\u escape");
                    }
                    // The writer only emits \u for control characters;
                    // encode the BMP code point as UTF-8.
                    if (cp < 0x80) {
                        out += char(cp);
                    } else if (cp < 0x800) {
                        out += char(0xc0 | (cp >> 6));
                        out += char(0x80 | (cp & 0x3f));
                    } else {
                        out += char(0xe0 | (cp >> 12));
                        out += char(0x80 | ((cp >> 6) & 0x3f));
                        out += char(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    TEXPIM_PANIC("bad JSON escape '\\", e, "'");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    Value
    stringValue()
    {
        Value v;
        v.kind = Value::Kind::String;
        v.string = rawString();
        return v;
    }

    Value
    number()
    {
        skipWs();
        size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(u8(s_[pos_])) || s_[pos_] == '-' ||
                s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E'))
            ++pos_;
        TEXPIM_ASSERT(pos_ > start, "expected a JSON number at offset ",
                      start);
        Value v;
        v.kind = Value::Kind::Number;
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    Value
    boolean()
    {
        Value v;
        v.kind = Value::Kind::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            v.boolean = false;
            pos_ += 5;
        } else {
            TEXPIM_PANIC("bad JSON literal at offset ", pos_);
        }
        return v;
    }

    Value
    null()
    {
        TEXPIM_ASSERT(s_.compare(pos_, 4, "null") == 0,
                      "bad JSON literal at offset ", pos_);
        pos_ += 4;
        return Value{};
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

Value
parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace json

} // namespace texpim
