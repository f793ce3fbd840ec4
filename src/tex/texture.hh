/**
 * @file
 * Texture images, mipmap chains and the simulated texture address space.
 *
 * Every texel of every mip level has a unique byte address in the
 * simulated physical address space (4 bytes per RGBA8 texel). The
 * timing side of the simulator replays these addresses into caches and
 * the memory system; the functional side reads the actual texel values.
 */

#ifndef TEXPIM_TEX_TEXTURE_HH
#define TEXPIM_TEX_TEXTURE_HH

#include <memory>
#include <string>
#include <vector>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "common/types.hh"
#include "geom/color.hh"

namespace texpim {

namespace detail {

/**
 * Spread the low 32 bits of v so bit i lands at bit 2i (Morton helper).
 *
 * Internal linkage on purpose: hot translation units compile with
 * -mbmi2 and take the pdep path while the rest use the portable
 * fallback; both produce the same bits for every input.
 */
static inline u64
part1by1(u64 v)
{
#if defined(__BMI2__)
    // Single-instruction bit deposit; integer-exact, so the swizzled
    // addresses are identical to the magic-bits fallback below.
    return _pdep_u64(v & 0xFFFF'FFFFull, 0x5555'5555'5555'5555ull);
#else
    v &= 0xFFFF'FFFFull;
    v = (v | (v << 16)) & 0x0000'FFFF'0000'FFFFull;
    v = (v | (v << 8)) & 0x00FF'00FF'00FF'00FFull;
    v = (v | (v << 4)) & 0x0F0F'0F0F'0F0F'0F0Full;
    v = (v | (v << 2)) & 0x3333'3333'3333'3333ull;
    v = (v | (v << 1)) & 0x5555'5555'5555'5555ull;
    return v;
#endif
}

} // namespace detail

/** A single RGBA8 image (one mip level). */
// texpim-lint: pool-shared scene textures are read by every phase-1 worker
class TextureImage
{
  public:
    TextureImage(unsigned width, unsigned height);

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    Rgba8 texel(unsigned x, unsigned y) const;
    void setTexel(unsigned x, unsigned y, Rgba8 c);

    const std::vector<Rgba8> &pixels() const { return pixels_; }

  private:
    unsigned width_;
    unsigned height_;
    std::vector<Rgba8> pixels_;
};

/** Storage format of a texture's texel data. */
enum class TexelFormat : u8 {
    Rgba8, //!< 4 bytes per texel, Morton-swizzled
    Bc1,   //!< BC1-compressed: 8-byte 4x4 blocks, Morton block order
};

/**
 * Cached per-mip-level accessor for hot sampling loops.
 *
 * Texture::fetchTexel / texelAddr re-derive the level image, wrap via
 * integer modulo and walk a per-bit Morton loop on every call; a
 * MipView snapshots everything loop-invariant (pixel pointer,
 * power-of-two wrap masks, Morton layout constants) so the quad
 * sampler pays one table load per level instead of per texel. All
 * results are bit-identical to the Texture accessors: dimensions are
 * asserted powers of two, so `coord & (dim-1)` equals the modulo wrap
 * for negative coordinates too, and the magic-bits interleave below
 * reproduces mortonIndex() exactly.
 *
 * Views borrow the Texture's storage; they are only valid while the
 * Texture is alive and are meant to live on the stack of a sampling
 * call, not to be stored.
 */
// texpim-lint: pool-shared borrowed texture views cross worker threads
struct MipView
{
    const ColorF *pixelsF; //!< row-major pre-unpacked level pixels
    Addr levelBase;        //!< baseAddr + levelOffset(l)
    u32 xMask;           //!< width - 1
    u32 yMask;           //!< height - 1
    u32 rowShift;        //!< log2(width)
    u32 lowMask;         //!< (1 << sharedBits) - 1, in addressed units
    u32 sharedBits;      //!< interleaved Morton bits (block units for BC1)
    u32 coordShift;      //!< texel coord -> addressed unit (0, or 2 for BC1)
    u32 unitShift;       //!< log2 bytes per addressed unit (2, or 3 for BC1)
    bool xMajor;         //!< leftover Morton bits come from x (width > height)

    /** Functional read of an already-wrapped coordinate (from tap()). */
    ColorF
    fetchWrapped(u32 wx, u32 wy) const
    {
        return pixelsF[(size_t(wy) << rowShift) + wx];
    }

    /** One 2x2 bilinear tap: corner addresses in a00/a10/a01/a11 order
     *  plus the wrapped texel coordinates for the matching fetches. */
    struct Tap2x2
    {
        Addr a[4];
        u32 wx0, wx1, wy0, wy1;
    };

    /**
     * Addresses and wrapped coordinates of the 2x2 tap anchored at
     * (x, y). Bit-identical to four Texture::texelAddr() calls, but
     * the per-axis Morton bit spreads are computed once and shared
     * across the corners (and skipped entirely when the neighbor
     * coordinate lands in the same addressed unit, as BC1 block
     * coordinates usually do).
     */
    Tap2x2
    tap(int x, int y) const
    {
        Tap2x2 t;
        t.wx0 = u32(x) & xMask;
        t.wx1 = u32(x + 1) & xMask;
        t.wy0 = u32(y) & yMask;
        t.wy1 = u32(y + 1) & yMask;
        u32 bx0 = t.wx0 >> coordShift, bx1 = t.wx1 >> coordShift;
        u32 by0 = t.wy0 >> coordShift, by1 = t.wy1 >> coordShift;
        u64 px0 = detail::part1by1(bx0 & lowMask);
        u64 px1 = bx1 == bx0 ? px0 : detail::part1by1(bx1 & lowMask);
        u64 py0 = detail::part1by1(by0 & lowMask) << 1;
        u64 py1 = by1 == by0 ? py0 : detail::part1by1(by1 & lowMask) << 1;
        unsigned s = 2 * sharedBits;
        if (xMajor) {
            u64 h0 = u64(bx0 >> sharedBits) << s;
            u64 h1 = u64(bx1 >> sharedBits) << s;
            t.a[0] = levelBase + ((px0 | py0 | h0) << unitShift);
            t.a[1] = levelBase + ((px1 | py0 | h1) << unitShift);
            t.a[2] = levelBase + ((px0 | py1 | h0) << unitShift);
            t.a[3] = levelBase + ((px1 | py1 | h1) << unitShift);
        } else {
            u64 h0 = u64(by0 >> sharedBits) << s;
            u64 h1 = u64(by1 >> sharedBits) << s;
            t.a[0] = levelBase + ((px0 | py0 | h0) << unitShift);
            t.a[1] = levelBase + ((px1 | py0 | h0) << unitShift);
            t.a[2] = levelBase + ((px0 | py1 | h1) << unitShift);
            t.a[3] = levelBase + ((px1 | py1 | h1) << unitShift);
        }
        return t;
    }
};

/**
 * A mipmapped 2D texture with an address-space placement.
 *
 * Mip levels are generated by box filtering down to 1x1, the
 * "pre-calculated sequences of texel images" of the paper's footnote 1.
 * A BC1 texture stores each level compressed: functional reads return
 * the lossy round-trip values and texel addresses land on the 8-byte
 * block holding the texel (so a cache line covers 8 blocks = 128
 * texels, the compression bandwidth win).
 */
// texpim-lint: pool-shared scene textures are read by every phase-1 worker
class Texture
{
  public:
    /**
     * @param name debug name
     * @param base level-0 image (dimensions must be powers of two)
     * @param base_addr placement in the simulated address space
     * @param format texel storage format
     */
    Texture(std::string name, TextureImage base, Addr base_addr,
            TexelFormat format = TexelFormat::Rgba8);

    const std::string &name() const { return name_; }
    Addr baseAddr() const { return base_addr_; }
    TexelFormat format() const { return format_; }

    unsigned levels() const { return unsigned(levels_.size()); }
    const TextureImage &level(unsigned l) const { return levels_.at(l); }

    unsigned width(unsigned l = 0) const { return level(l).width(); }
    unsigned height(unsigned l = 0) const { return level(l).height(); }

    /** Total bytes across all mip levels. */
    u64 byteSize() const { return byte_size_; }

    /** Byte offset of mip level l within the texture's address range
     *  (levels are laid out back to back from baseAddr()). */
    u64 levelOffset(unsigned l) const { return level_offsets_.at(l); }

    /** Bytes mip level l occupies in the simulated address space. */
    u64
    levelBytes(unsigned l) const
    {
        u64 end = l + 1 < levels() ? level_offsets_[l + 1] : byte_size_;
        return end - level_offsets_.at(l);
    }

    /**
     * Byte address of texel (x, y) of mip level l. Coordinates are
     * wrapped (repeat addressing) before the address is formed, so any
     * integer coordinate is legal.
     */
    Addr texelAddr(unsigned l, int x, int y) const;

    /** Functional texel read with repeat wrapping. */
    Rgba8 fetchTexel(unsigned l, int x, int y) const;

    /** Same, as float color. */
    ColorF
    fetchTexelF(unsigned l, int x, int y) const
    {
        return unpackColor(fetchTexel(l, x, y));
    }

    /** Cached accessor for mip level l (see MipView). */
    MipView mipView(unsigned l) const;

  private:
    std::string name_;
    Addr base_addr_;
    TexelFormat format_;
    std::vector<TextureImage> levels_;
    // Per-level unpackColor() of every texel, row-major: the sampling
    // hot loops read these through MipView so a texel costs one
    // aligned 16-byte load instead of four int->float conversions.
    // Host-side working memory only — simulated texture bytes stay
    // the Rgba8/BC1 sizes in level_offsets_/byte_size_.
    std::vector<std::vector<ColorF>> float_levels_;
    std::vector<u64> level_offsets_;
    u64 byte_size_ = 0;
};

/**
 * Owns all textures of a scene and hands out address-space placements.
 * Also maps a texel address back to its texture (used by PIM units to
 * interpret parent-texel packages).
 */
// texpim-lint: pool-shared one store per scene, read by every phase-1 worker
class TextureStore
{
  public:
    TextureStore() = default;

    /** Add a texture; returns its id. */
    u32 add(std::string name, TextureImage base,
            TexelFormat format = TexelFormat::Rgba8);

    const Texture &texture(u32 id) const;
    unsigned count() const { return unsigned(textures_.size()); }

    /** Total texture bytes resident in simulated memory. */
    u64 totalBytes() const { return next_addr_ - kTextureBase; }

    /** Base of the texture region in the address space. */
    static constexpr Addr kTextureBase = 0x1000'0000;

  private:
    std::vector<std::unique_ptr<Texture>> textures_;
    Addr next_addr_ = kTextureBase;
};

} // namespace texpim

#endif // TEXPIM_TEX_TEXTURE_HH
