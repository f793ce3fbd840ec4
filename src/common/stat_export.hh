/**
 * @file
 * Structured statistics export: JSON serialization of every
 * registered statistic (counters, averages, histograms including
 * bucket contents and p50/p95/p99 percentiles), plus a minimal JSON
 * reader used for round-trip validation in tests and tools.
 *
 * The JSON document shape ("texpim-stats-v1"):
 *
 *   {
 *     "schema": "texpim-stats-v1",
 *     "groups": [
 *       { "name": "renderer",
 *         "counters":   [ {"name","value","desc"?}, ... ],
 *         "averages":   [ {"name","mean","count","sum","desc"?}, ... ],
 *         "histograms": [ {"name","lo","hi","samples","mean","min",
 *                          "max","p50","p95","p99","buckets":[...],
 *                          "desc"?}, ... ] },
 *       ... ]
 *   }
 */

#ifndef TEXPIM_COMMON_STAT_EXPORT_HH
#define TEXPIM_COMMON_STAT_EXPORT_HH

#include <string>
#include <utility>
#include <vector>

#include "common/stat_registry.hh"

namespace texpim {

/**
 * A minimal streaming JSON writer (comma and quoting management only;
 * the caller is responsible for matching begin/end calls).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Object member key; follow with a value or begin* call. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(double v);
    JsonWriter &value(u64 v);
    JsonWriter &value(i64 v);
    JsonWriter &value(int v) { return value(i64(v)); }
    JsonWriter &value(unsigned v) { return value(u64(v)); }
    JsonWriter &value(bool v);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);

    /** Emit a JSON null ("this metric was not measured", as opposed
     *  to a measured zero). */
    JsonWriter &nullValue();

    JsonWriter &
    keyNull(const std::string &k)
    {
        key(k);
        return nullValue();
    }

    template <typename T>
    JsonWriter &
    keyValue(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    const std::string &str() const { return out_; }

    static std::string escape(const std::string &s);

  private:
    void comma();

    std::string out_;
    bool need_comma_ = false;
};

/** Serialize one group as a JSON object into `w` (used by exporters
 *  and by callers composing larger documents). */
void writeGroupJson(JsonWriter &w, const std::string &display,
                    const StatGroup &g);

/** The full registry as a "texpim-stats-v1" JSON document. */
std::string statsToJson(const StatRegistry &reg = StatRegistry::instance());

/** Write arbitrary text to `path`; fatal() on failure. */
void writeTextFile(const std::string &path, const std::string &text);

/**
 * Sum snapshots key-by-key (a key absent from a part contributes 0).
 * Deterministic: output keys are sorted (std::map) and summation
 * follows the order of `parts`, so merging per-job snapshots in
 * submission order is byte-stable regardless of worker count — the
 * ExperimentRunner's stat-merge building block.
 */
StatRegistry::Snapshot
mergeSnapshots(const std::vector<StatRegistry::Snapshot> &parts);

/** A (possibly merged) snapshot as a "texpim-stats-merged-v1" JSON
 *  document: {"schema", "jobs", "stats": {key: value, ...}}. */
std::string snapshotToJson(const StatRegistry::Snapshot &snap, u64 jobs = 1);

namespace json {

/** A parsed JSON value (numbers are doubles, as in JavaScript). */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object; // insertion order

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const Value *find(const std::string &key) const;

    /** Member lookup that panics when absent or not an object. */
    const Value &at(const std::string &key) const;
};

/** Parse a complete JSON document; panics on malformed input (the
 *  inputs are files this simulator itself wrote). */
Value parse(const std::string &text);

} // namespace json

} // namespace texpim

#endif // TEXPIM_COMMON_STAT_EXPORT_HH
