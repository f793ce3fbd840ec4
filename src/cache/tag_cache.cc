#include "cache/tag_cache.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace texpim {

namespace {

constexpr float kPi = 3.14159265358979323846f;
constexpr float kDegPerRad = 180.0f / kPi;

bool
isPowerOfTwo(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

u8
quantizeAngle(float radians)
{
    float deg = std::fabs(radians) * kDegPerRad;
    // Angles are symmetric around pi; fold into [0, 180).
    deg = std::fmod(deg, 180.0f);
    int code = int(std::lround(deg));
    return u8(std::clamp(code, 0, 127)); // 7-bit storage (SVII-E)
}

float
dequantizeAngle(u8 code)
{
    return float(code) / kDegPerRad;
}

TagCache::TagCache(const CacheParams &params) : params_(params)
{
    TEXPIM_ASSERT(params_.ways > 0, "cache needs at least one way");
    TEXPIM_ASSERT(isPowerOfTwo(params_.lineBytes),
                  "line size must be a power of two");
    u64 lines = params_.sizeBytes / params_.lineBytes;
    TEXPIM_ASSERT(lines >= params_.ways,
                  "cache too small for its associativity");
    num_sets_ = unsigned(lines / params_.ways);
    TEXPIM_ASSERT(isPowerOfTwo(num_sets_),
                  "set count must be a power of two (size=",
                  params_.sizeBytes, " ways=", params_.ways, ")");
    line_shift_ = unsigned(std::countr_zero(params_.lineBytes));
    lines_.assign(size_t(num_sets_) * params_.ways, Line{});
}

TagCache::Line *
TagCache::findLine(unsigned set, Addr tag)
{
    Line *base = &lines_[size_t(set) * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

CacheOutcome
TagCache::hit(Line &l)
{
    last_hit_cross_epoch_ = l.epoch != epoch_;
    l.epoch = epoch_;
    return CacheOutcome::Hit;
}

CacheOutcome
TagCache::fillVictim(unsigned set, Addr line, u8 angle_code)
{
    Line *base = &lines_[size_t(set) * params_.ways];
    Line *lru = &base[0];
    for (unsigned w = 1; w < params_.ways; ++w) {
        if (base[w].lastUse < lru->lastUse)
            lru = &base[w];
    }
    *lru = Line{line, use_clock_, epoch_, angle_code};
    return CacheOutcome::Miss;
}

CacheOutcome
TagCache::access(Addr addr)
{
    Addr line = lineAddr(addr);
    unsigned set = setOf(line);
    ++use_clock_;

    if (Line *l = findLine(set, line)) {
        l->lastUse = use_clock_;
        return hit(*l);
    }
    return fillVictim(set, line, 0);
}

CacheOutcome
TagCache::accessAngled(Addr addr, float angle_rad, float threshold_rad)
{
    Addr line = lineAddr(addr);
    unsigned set = setOf(line);
    ++use_clock_;

    u8 code = quantizeAngle(angle_rad);

    if (Line *l = findLine(set, line)) {
        l->lastUse = use_clock_;
        bool never_recalc = threshold_rad < 0.0f;
        float diff =
            std::fabs(dequantizeAngle(l->angleCode) - dequantizeAngle(code));
        if (never_recalc || diff <= threshold_rad)
            return hit(*l);
        // Same texel address, camera angle moved past the threshold:
        // recalculate in memory and refresh the stored angle (SV-C).
        l->angleCode = code;
        l->epoch = epoch_;
        return CacheOutcome::AngleMiss;
    }
    return fillVictim(set, line, code);
}

void
TagCache::invalidateAll()
{
    std::fill(lines_.begin(), lines_.end(), Line{});
}

} // namespace texpim
