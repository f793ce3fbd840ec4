#include "sim/runner/sweep_journal.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/logging.hh"
#include "common/stat_export.hh"

namespace texpim {

namespace {

std::string
hexU64(u64 v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return std::string(buf);
}

std::string
hexBits(double v)
{
    u64 bits;
    static_assert(sizeof bits == sizeof v, "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof bits);
    return hexU64(bits);
}

u64
parseHexU64(const std::string &s)
{
    if (s.size() != 16 ||
        s.find_first_not_of("0123456789abcdef") != std::string::npos)
        TEXPIM_PANIC("bad u64 hex field '", s, "' in sweep journal");
    return std::strtoull(s.c_str(), nullptr, 16);
}

double
parseBits(const std::string &s)
{
    u64 bits = parseHexU64(s);
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

const std::string &
stringField(const json::Value &row, const char *key)
{
    const json::Value &v = row.at(key);
    if (v.kind != json::Value::Kind::String)
        TEXPIM_PANIC("journal field '", key, "' is not a string");
    return v.string;
}

u64
hexField(const json::Value &row, const char *key)
{
    return parseHexU64(stringField(row, key));
}

/** Parse one row line into (index, result); panics on malformation
 *  (the caller maps a panic on the final line to "torn, ignore"). */
size_t
parseRow(const std::string &line, ExperimentResult &out)
{
    json::Value row = json::parse(line);
    const json::Value &idx = row.at("index");
    if (idx.kind != json::Value::Kind::Number || idx.number < 0)
        TEXPIM_PANIC("journal row has a bad 'index'");
    size_t index = size_t(idx.number);

    out = ExperimentResult{};
    out.name = stringField(row, "name");
    out.status = jobStatusFromName(stringField(row, "status"));

    const json::Value &err = row.at("error");
    if (!err.isNull()) {
        out.error.category =
            jobErrorCategoryFromName(stringField(err, "category"));
        out.error.site = stringField(err, "site");
        out.error.message = stringField(err, "message");
        out.error.specIndex = index;
    }

    out.imageFnv1a = hexField(row, "image_fnv1a");
    out.result.frame.frameCycles = hexField(row, "frame_cycles");
    out.result.textureFilterCycles = hexField(row, "texture_filter_cycles");
    out.result.textureTrafficBytes = hexField(row, "texture_traffic_bytes");
    out.result.offChipTotalBytes = hexField(row, "offchip_total_bytes");
    out.result.angleRecalcs = hexField(row, "angle_recalcs");

    const json::Value &energy = row.at("energy_bits");
    out.result.energy.shaderJ = parseBits(stringField(energy, "shader"));
    out.result.energy.textureJ = parseBits(stringField(energy, "texture"));
    out.result.energy.cacheJ = parseBits(stringField(energy, "cache"));
    out.result.energy.memoryJ = parseBits(stringField(energy, "memory"));
    out.result.energy.backgroundJ =
        parseBits(stringField(energy, "background"));
    out.result.energy.leakageJ = parseBits(stringField(energy, "leakage"));

    const json::Value &stats = row.at("stats_bits");
    if (!stats.isObject())
        TEXPIM_PANIC("journal field 'stats_bits' is not an object");
    for (const auto &kv : stats.object) {
        if (kv.second.kind != json::Value::Kind::String)
            TEXPIM_PANIC("journal stat '", kv.first, "' is not a string");
        out.stats[kv.first] = parseBits(kv.second.string);
    }

    out.traceFile = stringField(row, "trace_file");
    return index;
}

} // namespace

SweepJournal::SweepJournal(std::string path, size_t num_specs, bool fresh)
    : path_(std::move(path))
{
    if (!fresh) {
        // Resuming: the header is already on disk (load() validated
        // it); rows are appended after the existing ones.
        return;
    }
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "texpim-sweep-journal-v1");
    w.keyValue("specs", u64(num_specs));
    w.endObject();
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (f == nullptr)
        TEXPIM_FATAL("cannot write sweep journal '", path_, "'");
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
}

void
SweepJournal::append(const ExperimentResult &r, size_t index)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("index", u64(index));
    w.keyValue("name", r.name);
    w.keyValue("status", jobStatusName(r.status));
    if (r.error.category == JobErrorCategory::None) {
        w.keyNull("error");
    } else {
        w.key("error").beginObject();
        w.keyValue("category", jobErrorCategoryName(r.error.category));
        w.keyValue("site", r.error.site);
        w.keyValue("message", r.error.message);
        w.endObject();
    }
    w.keyValue("image_fnv1a", hexU64(r.imageFnv1a));
    w.keyValue("frame_cycles", hexU64(r.result.frame.frameCycles));
    w.keyValue("texture_filter_cycles",
               hexU64(r.result.textureFilterCycles));
    w.keyValue("texture_traffic_bytes",
               hexU64(r.result.textureTrafficBytes));
    w.keyValue("offchip_total_bytes", hexU64(r.result.offChipTotalBytes));
    w.keyValue("angle_recalcs", hexU64(r.result.angleRecalcs));
    w.key("energy_bits").beginObject();
    w.keyValue("shader", hexBits(r.result.energy.shaderJ));
    w.keyValue("texture", hexBits(r.result.energy.textureJ));
    w.keyValue("cache", hexBits(r.result.energy.cacheJ));
    w.keyValue("memory", hexBits(r.result.energy.memoryJ));
    w.keyValue("background", hexBits(r.result.energy.backgroundJ));
    w.keyValue("leakage", hexBits(r.result.energy.leakageJ));
    w.endObject();
    w.key("stats_bits").beginObject();
    for (const auto &kv : r.stats)
        w.keyValue(kv.first, hexBits(kv.second));
    w.endObject();
    w.keyValue("trace_file", r.traceFile);
    w.endObject();

    // One complete line per append, flushed before the lock drops: a
    // kill can tear at most the line being written, never reorder or
    // interleave rows.
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path_.c_str(), "a");
    if (f == nullptr)
        TEXPIM_FATAL("cannot append to sweep journal '", path_, "'");
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fflush(f);
    std::fclose(f);
}

std::map<size_t, ExperimentResult>
SweepJournal::load(const std::string &path,
                   const std::vector<std::string> &spec_names)
{
    std::ifstream in(path);
    if (!in)
        TEXPIM_FATAL("cannot read sweep journal '", path, "'");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            lines.push_back(line);
    }
    if (lines.empty())
        TEXPIM_FATAL("sweep journal '", path, "' is empty");

    // Header. A torn header means nothing completed; treat as corrupt
    // rather than silently rerunning everything.
    {
        json::Value header = json::parse(lines[0]);
        const json::Value *schema = header.find("schema");
        if (schema == nullptr ||
            schema->string != "texpim-sweep-journal-v1")
            TEXPIM_FATAL("'", path, "' is not a texpim-sweep-journal-v1 ",
                         "file");
        const json::Value &specs = header.at("specs");
        if (specs.kind != json::Value::Kind::Number ||
            size_t(specs.number) != spec_names.size())
            TEXPIM_FATAL("sweep journal '", path, "' is for a ",
                         u64(specs.number), "-spec grid; this sweep has ",
                         spec_names.size(),
                         " specs — resume must use the same grid "
                         "(games, designs) as the original run");
    }

    std::map<size_t, ExperimentResult> completed;
    for (size_t n = 1; n < lines.size(); ++n) {
        ExperimentResult r;
        size_t index = 0;
        bool torn = false;
        {
            // json::parse and the field accessors panic on bad input;
            // contain that so the final line — the only one a kill can
            // tear — degrades to a warning instead of aborting.
            ScopedPanicHandler contain;
            try {
                index = parseRow(lines[n], r);
            } catch (const SimPanic &e) {
                if (n + 1 < lines.size())
                    TEXPIM_FATAL("sweep journal '", path, "' line ", n + 1,
                                 " is malformed (", e.message(),
                                 "); only the final line may be torn");
                TEXPIM_WARN("sweep journal '", path,
                            "': ignoring torn final line (", e.message(),
                            ")");
                torn = true;
            }
        }
        if (torn)
            break;
        if (index >= spec_names.size())
            TEXPIM_FATAL("sweep journal '", path, "' row index ", index,
                         " is out of range for this ", spec_names.size(),
                         "-spec grid");
        if (r.name != spec_names[index])
            TEXPIM_FATAL("sweep journal '", path, "' row ", index, " is '",
                         r.name, "' but this sweep's spec ", index, " is '",
                         spec_names[index],
                         "' — resume must use the same grid as the "
                         "original run");
        completed[index] = std::move(r);
    }
    return completed;
}

} // namespace texpim
