/**
 * @file
 * Delta/varint codec for per-tile replay streams.
 *
 * Phase 1 emits TexSampleRec/ParentRec/block arrays whose addresses
 * are strongly correlated by construction: block lists are sorted
 * within each sample, consecutive samples of a tile walk neighboring
 * texels of the same mip levels, and fragment coordinates advance in
 * tile raster order. LEB128 varints over zigzagged deltas exploit all
 * of that, shrinking a frame's record bandwidth 4x+ while staying
 * byte-deterministic: the encoding is a pure function of the arrays,
 * and the arrays are pinned by the stable tile order (rules D2/D3), so
 * the encoded bytes — and their FNV hash — are invariant across
 * `gpu.render_threads` (the cross-thread stream-equivalence test).
 *
 * Colors, angles and weights are stored as raw little-endian f32 bits:
 * replay consumes them bit-exactly, so no lossy packing is allowed.
 * Redundant-by-construction fields (FragRecord::sample and the
 * blockOff/parentOff/childOff cursors, which are sequential appends)
 * are dropped and reconstructed during decode. Each A-TFIM parent has
 * its sample's anisoRatio children, so no per-parent count is stored,
 * and a decomposed sample stores no color: replay recombines it from
 * the parent values.
 *
 * decodeTileRecord() validates everything it reads — truncated or
 * corrupted input yields `false`, never UB or unbounded allocation —
 * which the codec property/fuzz tests (tests/gpu/test_replay_codec.cc)
 * exercise.
 */

#ifndef TEXPIM_GPU_REPLAY_CODEC_HH
#define TEXPIM_GPU_REPLAY_CODEC_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "gpu/replay.hh"

namespace texpim {

namespace codec {

/** Zigzag-map a signed delta to an unsigned varint payload. */
inline u64
zigzag(i64 v)
{
    return (u64(v) << 1) ^ u64(v >> 63);
}

inline i64
unzigzag(u64 v)
{
    return i64(v >> 1) ^ -i64(v & 1);
}

/** Append v as an LEB128 varint (7 bits per byte, MSB = continue). */
inline void
putVarint(std::vector<u8> &out, u64 v)
{
    while (v >= 0x80) {
        out.push_back(u8(v) | 0x80);
        v >>= 7;
    }
    out.push_back(u8(v));
}

/**
 * Bounds-checked reader over an encoded buffer. Every accessor
 * returns a value and clears `ok` on underrun/overlong input; callers
 * may batch reads and check ok once per record.
 */
struct Reader
{
    const u8 *p;
    const u8 *end;
    bool ok = true;

    Reader(const u8 *data, size_t size) : p(data), end(data + size) {}

    u64
    varint()
    {
        u64 v = 0;
        unsigned shift = 0;
        while (p < end) {
            u8 b = *p++;
            if (shift == 63 && (b & ~u8(1)) != 0)
                break; // overflows u64: corrupt
            v |= u64(b & 0x7F) << shift;
            if ((b & 0x80) == 0)
                return v;
            shift += 7;
            if (shift > 63)
                break;
        }
        ok = false;
        return 0;
    }

    u8
    byte()
    {
        if (p >= end) {
            ok = false;
            return 0;
        }
        return *p++;
    }
};

} // namespace codec

/** Encode one tile's records; replaces `out`'s contents. */
void encodeTileRecord(const TileRecord &rec, std::vector<u8> &out);

/**
 * Decode an encoded tile stream into `out` (cleared first, capacity
 * reused). Returns false — with a diagnostic in `*err` when provided —
 * on any truncation, corruption or internal inconsistency.
 */
bool decodeTileRecord(const u8 *data, size_t size, TileRecord &out,
                      std::string *err = nullptr);

} // namespace texpim

#endif // TEXPIM_GPU_REPLAY_CODEC_HH
