/**
 * @file
 * Triangle meshes and procedural mesh builders for the workload
 * generator: quads, boxes, inward-facing rooms, terrain grids and
 * columns. These are the geometric vocabulary from which the five game
 * profiles assemble their scenes.
 */

#ifndef TEXPIM_SCENE_MESH_HH
#define TEXPIM_SCENE_MESH_HH

#include <vector>

#include "common/types.hh"
#include "geom/vec.hh"

namespace texpim {

/** One vertex as the GPU's vertex fetcher sees it. */
struct Vertex
{
    Vec3 pos{};
    Vec3 normal{};
    Vec2 uv{};
};

/** An indexed triangle list. */
// texpim-lint: pool-shared scene meshes are read by every phase-1 worker
struct Mesh
{
    std::vector<Vertex> verts;
    std::vector<u32> indices; //!< triples forming triangles

    unsigned triangleCount() const { return unsigned(indices.size() / 3); }

    /** Bytes the vertex fetcher must read for this mesh. */
    u64
    fetchBytes() const
    {
        return verts.size() * sizeof(Vertex) + indices.size() * sizeof(u32);
    }

    /** Append another mesh (indices rebased). */
    void append(const Mesh &other);
};

/**
 * A single quad: corner `origin`, spanned by `edge_u` and `edge_v`.
 * UVs run from (0,0) to (uv_scale, uv_scale) so a larger scale tiles
 * the texture more densely across the surface.
 */
Mesh makeQuad(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float uv_scale = 1.0f);

/**
 * Quad with independent uv repeat counts along each edge, so texel
 * density can track world dimensions (square texels on elongated
 * surfaces like corridor floors).
 */
Mesh makeQuadUv(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float u_scale,
                float v_scale);

/**
 * Tessellated quad: an `nu` x `nv` grid of quads spanning the same
 * surface. Game geometry is tessellated for per-vertex lighting, and
 * the vertex stream is a visible slice of frame memory traffic
 * (Fig. 2 "Geometry").
 */
Mesh makeGridQuad(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float u_scale,
                  float v_scale, unsigned nu, unsigned nv);

/** An axis-aligned box with outward normals. */
Mesh makeBox(Vec3 center, Vec3 half_extent, float uv_scale = 1.0f);

/**
 * An inward-facing room (floor, ceiling, four walls) centered at
 * `center`. Floors and walls seen at grazing angles are the prime
 * anisotropic-filtering consumers in the game profiles.
 */
Mesh makeRoom(Vec3 center, Vec3 half_extent, float uv_scale = 4.0f);

/**
 * A terrain grid in the XZ plane: `n` x `n` quads over `size` x `size`
 * world units, displaced in Y by `height_fn(x, z)`.
 */
Mesh makeTerrain(unsigned n, float size, float amplitude, u64 seed);

/** An axial column (prism with `segments` sides) for clutter. */
Mesh makeColumn(Vec3 base_center, float radius, float height,
                unsigned segments = 8, float uv_scale = 2.0f);

} // namespace texpim

#endif // TEXPIM_SCENE_MESH_HH
