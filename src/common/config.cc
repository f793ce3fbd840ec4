#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "common/logging.hh"

namespace texpim {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::parseItem(const std::string &item)
{
    // Split on the *first* '=' only: values are allowed to contain '='
    // (e.g. out=frames/a=b.ppm).
    size_t eq = item.find('=');
    if (eq == std::string::npos)
        TEXPIM_FATAL("malformed config item '", item, "' (expected key=value)");
    std::string key = trim(item.substr(0, eq));
    std::string value = trim(item.substr(eq + 1));
    if (key.empty())
        TEXPIM_FATAL("empty key in config item '", item, "'");
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    queried_.insert(key);
    return values_.count(key) != 0;
}

std::optional<std::string>
Config::rawGet(const std::string &key) const
{
    queried_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return std::nullopt;
    return it->second;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto v = rawGet(key);
    return v ? *v : dflt;
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto v = rawGet(key);
    if (!v)
        return dflt;
    char *end = nullptr;
    double r = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0')
        TEXPIM_FATAL("config key '", key, "' = '", *v, "' is not a number");
    return r;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto raw = rawGet(key);
    if (!raw)
        return dflt;
    std::string v = *raw;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return char(std::tolower(c)); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    // Report the raw value, not the lowercased working copy.
    TEXPIM_FATAL("config key '", key, "' = '", *raw, "' is not a boolean");
}

unsigned
Config::getUnsigned(const std::string &key, unsigned dflt, unsigned lo,
                    unsigned hi) const
{
    auto raw = rawGet(key);
    return raw ? parseUnsigned(key, *raw, lo, hi) : dflt;
}

unsigned
Config::parseUnsigned(const std::string &name, const std::string &raw,
                      unsigned lo, unsigned hi)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(raw.c_str(), &end, 0);
    if (end == raw.c_str() || *end != '\0' || errno == ERANGE ||
        v < (long long)lo || v > (long long)hi)
        TEXPIM_FATAL(name, " must be between ", lo, " and ", hi, ", got ",
                     raw);
    return unsigned(v);
}

u64
Config::getU64(const std::string &key, u64 dflt) const
{
    auto raw = rawGet(key);
    return raw ? parseU64(key, *raw) : dflt;
}

u64
Config::parseU64(const std::string &name, const std::string &raw)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(raw.c_str(), &end, 0);
    if (end == raw.c_str() || *end != '\0' || errno == ERANGE ||
        raw.find('-') != std::string::npos)
        TEXPIM_FATAL(name, " must be an unsigned 64-bit integer, got ", raw);
    return u64(v);
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

namespace {

/** Classic Levenshtein distance (both strings are short config keys). */
size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (size_t j = 1; j <= b.size(); ++j) {
            size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

std::vector<std::string>
Config::unknownKeys(const std::vector<std::string> &known) const
{
    std::vector<std::string> out;
    for (const auto &kv : values_) {
        if (queried_.count(kv.first))
            continue;
        if (std::find(known.begin(), known.end(), kv.first) != known.end())
            continue;
        out.push_back(kv.first);
    }
    return out;
}

std::string
Config::suggestKey(const std::string &key,
                   const std::vector<std::string> &known) const
{
    std::string best;
    size_t best_d = SIZE_MAX;
    auto consider = [&](const std::string &cand) {
        if (cand == key)
            return;
        size_t d = editDistance(key, cand);
        if (d < best_d || (d == best_d && cand < best)) {
            best_d = d;
            best = cand;
        }
    };
    for (const std::string &k : queried_)
        consider(k);
    for (const std::string &k : known)
        consider(k);
    // Only suggest genuinely close candidates: a third of the key's
    // length (at least 2 edits, so one-letter keys still get help).
    size_t limit = std::max<size_t>(2, key.size() / 3);
    return best_d <= limit ? best : "";
}

void
Config::checkKnownKeys(const std::vector<std::string> &known) const
{
    for (const std::string &key : unknownKeys(known)) {
        std::string hint = suggestKey(key, known);
        std::string msg = "unknown config key '" + key + "'";
        if (!hint.empty())
            msg += " (did you mean '" + hint + "'?)";
        TEXPIM_FATAL(msg);
    }
}

} // namespace texpim
