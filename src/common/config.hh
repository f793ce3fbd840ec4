/**
 * @file
 * Typed key=value configuration store.
 *
 * Components read their parameters from a Config populated from
 * command-line style "key=value" strings. A missing key falls back to
 * the lookup's default; a malformed or out-of-range value fatal()s,
 * making misconfiguration a user error, not a crash.
 */

#ifndef TEXPIM_COMMON_CONFIG_HH
#define TEXPIM_COMMON_CONFIG_HH

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.hh"

namespace texpim {

class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** Parse one "key=value" item; fatal() on malformed input. */
    void parseItem(const std::string &item);

    bool has(const std::string &key) const;

    /** Defaulted lookups: `dflt` when the key is missing; a malformed
     *  number or boolean fatal()s naming the key and the raw value. */
    std::string getString(const std::string &key,
                          const std::string &dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /**
     * Strict unsigned lookup: `dflt` when the key is missing, else
     * parseUnsigned(key, value, lo, hi).
     */
    unsigned getUnsigned(const std::string &key, unsigned dflt,
                         unsigned lo, unsigned hi) const;

    /**
     * Parse `raw` as an integer, decimal or 0x-prefixed, in [lo, hi].
     * The range check runs on the signed value, so -1 cannot wrap to
     * 4294967295; anything else fatal()s naming `name`, the range and
     * `raw`.
     */
    static unsigned parseUnsigned(const std::string &name,
                                  const std::string &raw, unsigned lo,
                                  unsigned hi);

    /** Strict u64 lookup (the seeds): `dflt` when the key is missing,
     *  else parseU64(key, value). */
    u64 getU64(const std::string &key, u64 dflt) const;

    /**
     * Parse `raw` as any u64, decimal or 0x-prefixed. A sign, junk or
     * overflow fatal()s naming `name` and `raw` (strtoull alone would
     * wrap "-1" and read "abc" as 0).
     */
    static u64 parseU64(const std::string &name, const std::string &raw);

    /** All keys in sorted order. */
    std::vector<std::string> keys() const;

    /**
     * Strict key validation. Every lookup (has() or any getter)
     * registers its key as known, so after the consumers of a Config
     * have read their parameters, any stored key that was never looked
     * up and is not in `known` is a typo or an obsolete option.
     * Unknown keys are fatal(), with a "did you mean" edit-distance
     * suggestion when one is close.
     */
    void checkKnownKeys(const std::vector<std::string> &known = {}) const;

    /** Stored keys never looked up and not in `known`, sorted. */
    std::vector<std::string> unknownKeys(
        const std::vector<std::string> &known = {}) const;

    /** Closest registered/`known` key to `key` by edit distance, or ""
     *  when nothing is close enough to suggest. */
    std::string suggestKey(const std::string &key,
                           const std::vector<std::string> &known = {}) const;

  private:
    std::optional<std::string> rawGet(const std::string &key) const;

    std::map<std::string, std::string> values_;
    /** Every key ever passed to has()/rawGet() — the registered-key
     *  set checkKnownKeys() validates against. */
    mutable std::set<std::string> queried_;
};

} // namespace texpim

#endif // TEXPIM_COMMON_CONFIG_HH
