#include "scene/procedural_texture.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "geom/vec.hh"

namespace texpim {

namespace {

float
smoothstep(float t)
{
    return t * t * (3.0f - 2.0f * t);
}

/**
 * Integer lattice hash -> [0,1), split in two so that a row can fix y
 * once: rowKey() folds the seed and y together, latticeValue() mixes
 * in x. XOR is associative, so this is the hash of (x, y, seed) in
 * one piece.
 */
u64
rowKey(int y, u64 seed)
{
    return seed ^ (u64(u32(y)) * 0xc2b2ae3d27d4eb4full);
}

float
latticeValue(u64 row_key, int x)
{
    u64 h = row_key ^ (u64(u32(x)) * 0x9e3779b97f4a7c15ull);
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 32;
    return float(h >> 40) / float(1 << 24);
}

/** A coordinate's lattice cell and its smoothstep weight in the cell. */
struct LatticeCoord
{
    int cell;
    float t;

    explicit LatticeCoord(float c)
    {
        float f = std::floor(c);
        cell = int(f);
        t = smoothstep(c - f);
    }
};

/** The y half of one value-noise octave: everything that is fixed
 *  along a row of constant y. */
struct NoiseRow
{
    u64 key0; //!< rowKey of the cell's lower lattice line
    u64 key1; //!< rowKey of its upper lattice line
    float ty;

    NoiseRow(float y, u64 seed)
    {
        LatticeCoord c(y);
        key0 = rowKey(c.cell, seed);
        key1 = rowKey(c.cell + 1, seed);
        ty = c.t;
    }
};

/** The four lattice values around cell `ix` of a row. */
// texpim-lint: caller-owned a stack-local cursor of one row walk
struct NoiseCell
{
    float v00, v10, v01, v11;

    NoiseCell(const NoiseRow &r, int ix)
        : v00(latticeValue(r.key0, ix)), v10(latticeValue(r.key0, ix + 1)),
          v01(latticeValue(r.key1, ix)), v11(latticeValue(r.key1, ix + 1))
    {}

    /** Cell ix + 1: its left corners are this cell's right ones. */
    void
    stepRight(const NoiseRow &r, int ix)
    {
        v00 = v10;
        v01 = v11;
        v10 = latticeValue(r.key0, ix + 2);
        v11 = latticeValue(r.key1, ix + 2);
    }

    float
    blend(float tx, float ty) const
    {
        return lerp(lerp(v00, v10, tx), lerp(v01, v11, tx), ty);
    }
};

/**
 * Call f(octave_seed, amplitude, frequency) for each fBm octave and
 * return the sum of the amplitudes (the normalizer).
 */
template <class F>
float
forEachOctave(unsigned octaves, u64 seed, F &&f)
{
    float amp = 0.5f;
    float freq = 1.0f;
    float norm = 0.0f;
    for (unsigned o = 0; o < octaves; ++o) {
        f(seed + o * 1013, amp, freq);
        norm += amp;
        amp *= 0.5f;
        freq *= 2.0f;
    }
    return norm;
}

/**
 * One fBm term of a material, fbmNoise(u * sx, v * sy, octaves, seed)
 * over u = x / size, produced one row at a time. Each octave walks the
 * row left to right and hashes a lattice cell only when x enters a new
 * one, so the per-texel work is one blend. The arithmetic per texel is
 * fbmNoise's, in the same order.
 */
// texpim-lint: caller-owned row buffers local to one generateTexture call
class FbmField
{
  public:
    FbmField(const std::vector<float> &us, float sx, float sy,
             unsigned octaves, u64 seed)
        : xs_(us.size()), out_(us.size()), sy_(sy), octaves_(octaves),
          seed_(seed)
    {
        for (size_t i = 0; i < us.size(); ++i)
            xs_[i] = us[i] * sx;
    }

    /** The row at v: row(v)[i] == fbmNoise(xs_[i], v * sy, ...). Valid
     *  until the next call. */
    const float *
    row(float v)
    {
        float y = v * sy_;
        std::fill(out_.begin(), out_.end(), 0.0f);
        float norm = forEachOctave(octaves_, seed_,
                                   [&](u64 s, float amp, float freq) {
            NoiseRow row(y * freq, s);
            int ix = LatticeCoord(xs_[0] * freq).cell;
            NoiseCell cell(row, ix);
            for (size_t i = 0; i < xs_.size(); ++i) {
                LatticeCoord cx(xs_[i] * freq);
                if (cx.cell != ix) {
                    if (cx.cell == ix + 1)
                        cell.stepRight(row, ix);
                    else
                        cell = NoiseCell(row, cx.cell);
                    ix = cx.cell;
                }
                out_[i] += amp * cell.blend(cx.t, row.ty);
            }
        });
        for (float &o : out_)
            o = norm > 0.0f ? o / norm : 0.0f;
        return out_.data();
    }

  private:
    std::vector<float> xs_;
    std::vector<float> out_;
    float sy_;
    unsigned octaves_;
    u64 seed_;
};

/**
 * Fill the square image `img` row by row; us[i] = i / size is both the
 * u of column i and the v of row i. rowFn(y, v) runs once per row and
 * returns the row's texel function, texel(x, u) -> ColorF.
 */
template <class RowFn>
void
fillRows(TextureImage &img, const std::vector<float> &us, RowFn &&row_fn)
{
    for (unsigned y = 0; y < img.height(); ++y) {
        auto texel = row_fn(y, us[y]);
        for (unsigned x = 0; x < img.width(); ++x) {
            // texpim-lint: allow(T1) generateTexture's own image, not yet
            // published to any scene
            img.setTexel(x, y, packColor(texel(x, us[x])));
        }
    }
}

ColorF
shade(ColorF base, float t)
{
    return (base * (0.6f + 0.4f * t)).clamped();
}

} // namespace

float
fbmNoise(float x, float y, unsigned octaves, u64 seed)
{
    float sum = 0.0f;
    float norm = forEachOctave(octaves, seed,
                               [&](u64 s, float amp, float freq) {
        NoiseRow row(y * freq, s);
        LatticeCoord cx(x * freq);
        sum += amp * NoiseCell(row, cx.cell).blend(cx.t, row.ty);
    });
    return norm > 0.0f ? sum / norm : 0.0f;
}

const char *
materialName(Material m)
{
    switch (m) {
      case Material::Checker:
        return "checker";
      case Material::Bricks:
        return "bricks";
      case Material::Stone:
        return "stone";
      case Material::Marble:
        return "marble";
      case Material::Wood:
        return "wood";
      case Material::Metal:
        return "metal";
      case Material::Grass:
        return "grass";
      case Material::Concrete:
        return "concrete";
      default:
        TEXPIM_PANIC("bad material ", int(m));
    }
}

TextureImage
generateTexture(Material m, unsigned size, u64 seed)
{
    TEXPIM_ASSERT(size >= 4, "texture too small");
    TextureImage img(size, size);
    float inv = 1.0f / float(size);
    std::vector<float> us(size);
    for (unsigned x = 0; x < size; ++x)
        us[x] = float(x) * inv;

    switch (m) {
      case Material::Checker:
        fillRows(img, us, [&](unsigned y, float) {
            return [=](unsigned x, float) {
                bool on = ((x * 8 / size) + (y * 8 / size)) & 1;
                return on ? ColorF{0.9f, 0.9f, 0.85f}
                          : ColorF{0.15f, 0.15f, 0.2f};
            };
        });
        break;
      case Material::Bricks: {
        FbmField noise(us, 32, 32, 3, seed);
        fillRows(img, us, [&](unsigned, float v) {
            float row = v * 8.0f;
            float shift = (int(row) & 1) ? 0.5f : 0.0f;
            float my = row - std::floor(row);
            const float *n = noise.row(v);
            return [=](unsigned x, float u) {
                float col = u * 4.0f + shift;
                float mx = col - std::floor(col);
                bool mortar = mx < 0.06f || my < 0.12f;
                return mortar ? ColorF{0.75f, 0.73f, 0.7f}
                              : shade(ColorF{0.55f, 0.22f, 0.16f}, n[x]);
            };
        });
        break;
      }
      case Material::Stone: {
        FbmField noise(us, 12, 12, 5, seed);
        FbmField cracks(us, 6, 6, 4, seed + 7);
        fillRows(img, us, [&](unsigned, float v) {
            const float *n = noise.row(v);
            const float *c = cracks.row(v);
            return [=](unsigned x, float) {
                float cracked = std::fabs(c[x] - 0.5f) < 0.03f ? 0.5f : 1.0f;
                float t = n[x] * cracked;
                return shade(ColorF{0.5f, 0.5f, 0.52f}, t);
            };
        });
        break;
      }
      case Material::Marble: {
        FbmField noise(us, 8, 8, 5, seed);
        fillRows(img, us, [&](unsigned, float v) {
            const float *n = noise.row(v);
            return [=](unsigned x, float u) {
                float phase = (u * 10.0f + n[x] * 6.0f) * 3.1416f;
                float vein = 0.5f + 0.5f * std::sin(phase);
                return lerp(ColorF{0.85f, 0.85f, 0.88f},
                            ColorF{0.45f, 0.42f, 0.48f}, vein * vein);
            };
        });
        break;
      }
      case Material::Wood: {
        FbmField noise(us, 6, 6, 3, seed);
        fillRows(img, us, [&](unsigned, float v) {
            float dv2 = (v - 0.5f) * (v - 0.5f);
            const float *n = noise.row(v);
            return [=](unsigned x, float u) {
                float r = std::sqrt((u - 0.5f) * (u - 0.5f) + dv2);
                float ring = 0.5f + 0.5f * std::sin((r * 40.0f + n[x] * 4.0f));
                return lerp(ColorF{0.55f, 0.35f, 0.18f},
                            ColorF{0.35f, 0.2f, 0.1f}, ring);
            };
        });
        break;
      }
      case Material::Metal: {
        FbmField noise(us, 40, 2, 3, seed);
        fillRows(img, us, [&](unsigned, float v) {
            float scan = 0.9f + 0.1f * std::sin(v * size * 0.8f);
            const float *n = noise.row(v);
            return [=](unsigned x, float) {
                return shade(ColorF{0.5f, 0.55f, 0.6f}, n[x] * scan);
            };
        });
        break;
      }
      case Material::Grass: {
        FbmField noise(us, 24, 24, 4, seed);
        fillRows(img, us, [&](unsigned, float v) {
            const float *n = noise.row(v);
            return [=](unsigned x, float) {
                return lerp(ColorF{0.15f, 0.4f, 0.12f},
                            ColorF{0.35f, 0.55f, 0.2f}, n[x]);
            };
        });
        break;
      }
      case Material::Concrete: {
        FbmField noise(us, 16, 16, 4, seed);
        FbmField stain(us, 3, 3, 2, seed + 3);
        fillRows(img, us, [&](unsigned, float v) {
            const float *n = noise.row(v);
            const float *s = stain.row(v);
            return [=](unsigned x, float) {
                return shade(ColorF{0.62f, 0.6f, 0.58f},
                             0.7f * n[x] + 0.3f * s[x]);
            };
        });
        break;
      }
      default:
        TEXPIM_PANIC("bad material");
    }
    return img;
}

} // namespace texpim
