/**
 * @file
 * The profile-zone registry: every zone the TEXPIM_PROF_* macros may
 * charge work to, as one X-macro table.
 *
 * A zone is a named node in a static hierarchy (parent links below).
 * The profiler records, per zone, an event count, simulated cycles and
 * host wall-clock seconds; the export derives self times as
 * total - sum(children totals). Keeping the table static (rather than
 * registering zones at runtime) lets the compiler check every charge
 * site against it (the TEXPIM_PROF_* macros static_assert a table row),
 * and keeps the export order — and therefore the profile JSON bytes —
 * independent of execution order.
 *
 * Adding a zone: add one Z() row, keeping the hierarchy
 * parent-before-child (the self-time computation walks the table once
 * in order). The name is the display path; the description is
 * mandatory (a static_assert below rejects an empty one).
 */

#ifndef TEXPIM_COMMON_PROF_ZONES_HH
#define TEXPIM_COMMON_PROF_ZONES_HH

namespace texpim {
namespace prof {

/**
 * Z(constant, display-name, parent-constant, description)
 *
 * kZoneNone is the root sentinel (parent of top-level zones).
 */
#define TEXPIM_ZONE_TABLE(Z)                                                  \
    Z(kZoneFrame, "frame", kZoneNone,                                         \
      "one whole frame through the rendering pipeline")                       \
    Z(kZoneGeometry, "frame/geometry", kZoneFrame,                            \
      "geometry phase: vertex fetch, shading, clip and raster setup")         \
    Z(kZoneSample, "frame/sample", kZoneFrame,                                \
      "texture requests sampled (count); wall: FrameStats' phase-1 set-up "   \
      "(geometry, tile binning) on whichever thread ran it - tiles record "   \
      "inside frame/replay")                                                  \
    Z(kZoneReplay, "frame/replay", kZoneFrame,                                \
      "phase-2 timing replay, tiles streaming in from the record")            \
    Z(kZoneSchedule, "frame/replay/tiles", kZoneReplay,                       \
      "per-tile work scheduled by the phase-2 cluster scheduler")             \
    Z(kZoneWait, "frame/replay/wait", kZoneReplay,                            \
      "host wall-clock the replay spent waiting for, or itself recording, "   \
      "the tile it chose next (wall-only: FrameStats' replay wait)")          \
    Z(kZoneTagCache, "mem/tagcache", kZoneNone,                               \
      "tag-cache lookups (texture L1/L2 and ROP Z/color caches)")             \
    Z(kZoneHmcLink, "mem/hmc/link", kZoneNone,                                \
      "HMC serial-link packet transmissions, both directions")                \
    Z(kZoneHmcVault, "mem/hmc/vault", kZoneNone,                              \
      "HMC vault accesses: switch, TSV and DRAM bank time")                   \
    Z(kZonePimPackage, "pim/package", kZoneNone,                              \
      "PIM package execution on the logic layer, once per offload "           \
      "(link transfers are mem/hmc/link)")

/** Zone identifiers, one per table row, plus the kZoneNone root. */
enum ZoneId : unsigned {
    kZoneNone = 0,
#define TEXPIM_ZONE_ENUM(id, name, parent, desc) id,
    TEXPIM_ZONE_TABLE(TEXPIM_ZONE_ENUM)
#undef TEXPIM_ZONE_ENUM
        kZoneCount,
};

/** Static metadata of one zone (indexed by ZoneId). */
struct ZoneInfo
{
    const char *name;        //!< display path, e.g. "frame/replay"
    ZoneId parent;           //!< kZoneNone for top-level zones
    const char *description; //!< mandatory (static_assert below)
};

/** The zone table; index 0 is the kZoneNone sentinel. */
inline constexpr ZoneInfo kZones[kZoneCount] = {
    {"", kZoneNone, ""},
#define TEXPIM_ZONE_INFO(id, name, parent, desc) {name, parent, desc},
    TEXPIM_ZONE_TABLE(TEXPIM_ZONE_INFO)
#undef TEXPIM_ZONE_INFO
};

constexpr bool
everyZoneDescribed()
{
    for (unsigned z = 1; z < kZoneCount; ++z)
        if (kZones[z].description[0] == '\0')
            return false;
    return true;
}
static_assert(everyZoneDescribed(),
              "every TEXPIM_ZONE_TABLE row needs a non-empty description");

} // namespace prof
} // namespace texpim

#endif // TEXPIM_COMMON_PROF_ZONES_HH
