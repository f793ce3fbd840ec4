#include "scene/mesh.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace texpim {

void
Mesh::append(const Mesh &other)
{
    u32 base = u32(verts.size());
    verts.insert(verts.end(), other.verts.begin(), other.verts.end());
    indices.reserve(indices.size() + other.indices.size());
    for (u32 i : other.indices)
        indices.push_back(base + i);
}

Mesh
makeQuad(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float uv_scale)
{
    return makeQuadUv(origin, edge_u, edge_v, uv_scale, uv_scale);
}

Mesh
makeQuadUv(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float u_scale,
           float v_scale)
{
    Mesh m;
    Vec3 n = edge_u.cross(edge_v).normalized();
    m.verts = {
        {origin, n, {0.0f, 0.0f}},
        {origin + edge_u, n, {u_scale, 0.0f}},
        {origin + edge_u + edge_v, n, {u_scale, v_scale}},
        {origin + edge_v, n, {0.0f, v_scale}},
    };
    m.indices = {0, 1, 2, 0, 2, 3};
    return m;
}

Mesh
makeGridQuad(Vec3 origin, Vec3 edge_u, Vec3 edge_v, float u_scale,
             float v_scale, unsigned nu, unsigned nv)
{
    TEXPIM_ASSERT(nu >= 1 && nv >= 1, "grid quad needs cells");
    Mesh m;
    Vec3 n = edge_u.cross(edge_v).normalized();
    for (unsigned j = 0; j <= nv; ++j) {
        for (unsigned i = 0; i <= nu; ++i) {
            float fu = float(i) / float(nu);
            float fv = float(j) / float(nv);
            Vertex v;
            v.pos = origin + edge_u * fu + edge_v * fv;
            v.normal = n;
            v.uv = {u_scale * fu, v_scale * fv};
            m.verts.push_back(v);
        }
    }
    for (unsigned j = 0; j < nv; ++j) {
        for (unsigned i = 0; i < nu; ++i) {
            u32 i0 = j * (nu + 1) + i;
            u32 i1 = i0 + 1;
            u32 i2 = i0 + (nu + 1);
            u32 i3 = i2 + 1;
            m.indices.insert(m.indices.end(), {i0, i2, i1, i1, i2, i3});
        }
    }
    return m;
}

namespace {

/** Shift a quad's uv region so different faces of one solid occupy
 *  different texels — aliased texels across faces with different
 *  camera angles would thrash (and pollute) A-TFIM's angle-tagged
 *  reuse in ways real art never does. */
void
offsetUv(Mesh &quad, float du, float dv)
{
    for (auto &v : quad.verts) {
        v.uv.x += du;
        v.uv.y += dv;
    }
}

} // namespace

Mesh
makeBox(Vec3 c, Vec3 h, float uv_scale)
{
    Mesh m;
    // +X, -X, +Y, -Y, +Z, -Z faces, outward winding; each face maps a
    // distinct uv region.
    Mesh f0 = makeQuad({c.x + h.x, c.y - h.y, c.z + h.z},
                       {0, 0, -2 * h.z}, {0, 2 * h.y, 0}, uv_scale);
    Mesh f1 = makeQuad({c.x - h.x, c.y - h.y, c.z - h.z},
                       {0, 0, 2 * h.z}, {0, 2 * h.y, 0}, uv_scale);
    Mesh f2 = makeQuad({c.x - h.x, c.y + h.y, c.z + h.z},
                       {2 * h.x, 0, 0}, {0, 0, -2 * h.z}, uv_scale);
    Mesh f3 = makeQuad({c.x - h.x, c.y - h.y, c.z - h.z},
                       {2 * h.x, 0, 0}, {0, 0, 2 * h.z}, uv_scale);
    Mesh f4 = makeQuad({c.x - h.x, c.y - h.y, c.z + h.z},
                       {2 * h.x, 0, 0}, {0, 2 * h.y, 0}, uv_scale);
    Mesh f5 = makeQuad({c.x + h.x, c.y - h.y, c.z - h.z},
                       {-2 * h.x, 0, 0}, {0, 2 * h.y, 0}, uv_scale);
    Mesh *faces[6] = {&f0, &f1, &f2, &f3, &f4, &f5};
    for (int i = 0; i < 6; ++i) {
        offsetUv(*faces[i], 0.31f * float(i), 0.17f * float(i));
        m.append(*faces[i]);
    }
    return m;
}

Mesh
makeRoom(Vec3 c, Vec3 h, float uv_scale)
{
    Mesh m;
    // Inward-facing: floor (+Y normal), ceiling (-Y), four walls.
    m.append(makeQuad({c.x - h.x, c.y - h.y, c.z + h.z},
                      {2 * h.x, 0, 0}, {0, 0, -2 * h.z}, uv_scale)); // floor
    m.append(makeQuad({c.x - h.x, c.y + h.y, c.z - h.z},
                      {2 * h.x, 0, 0}, {0, 0, 2 * h.z}, uv_scale)); // ceiling
    m.append(makeQuad({c.x - h.x, c.y - h.y, c.z - h.z},
                      {2 * h.x, 0, 0}, {0, 2 * h.y, 0}, uv_scale)); // back
    m.append(makeQuad({c.x + h.x, c.y - h.y, c.z + h.z},
                      {-2 * h.x, 0, 0}, {0, 2 * h.y, 0}, uv_scale)); // front
    m.append(makeQuad({c.x - h.x, c.y - h.y, c.z + h.z},
                      {0, 0, -2 * h.z}, {0, 2 * h.y, 0}, uv_scale)); // left
    m.append(makeQuad({c.x + h.x, c.y - h.y, c.z - h.z},
                      {0, 0, 2 * h.z}, {0, 2 * h.y, 0}, uv_scale)); // right
    return m;
}

Mesh
makeTerrain(unsigned n, float size, float amplitude, u64 seed)
{
    TEXPIM_ASSERT(n >= 1, "terrain needs at least one quad");
    Rng rng(seed);

    // Random height field, smoothed once to avoid spikes.
    std::vector<float> h((n + 1) * (n + 1));
    for (auto &v : h)
        v = float(rng.uniform(-1.0, 1.0)) * amplitude;
    std::vector<float> hs = h;
    auto at = [&](unsigned x, unsigned z) -> float & {
        return hs[z * (n + 1) + x];
    };
    for (unsigned z = 1; z < n; ++z)
        for (unsigned x = 1; x < n; ++x)
            at(x, z) = (h[z * (n + 1) + x] + h[z * (n + 1) + x - 1] +
                        h[z * (n + 1) + x + 1] + h[(z - 1) * (n + 1) + x] +
                        h[(z + 1) * (n + 1) + x]) /
                       5.0f;

    Mesh m;
    float step = size / float(n);
    float half = size * 0.5f;
    for (unsigned z = 0; z <= n; ++z) {
        for (unsigned x = 0; x <= n; ++x) {
            Vertex v;
            v.pos = {-half + float(x) * step, at(x, z),
                     -half + float(z) * step};
            v.uv = {float(x), float(z)};
            v.normal = {0, 1, 0};
            m.verts.push_back(v);
        }
    }
    // Central-difference normals.
    for (unsigned z = 0; z <= n; ++z) {
        for (unsigned x = 0; x <= n; ++x) {
            float hl = at(x > 0 ? x - 1 : x, z);
            float hr = at(x < n ? x + 1 : x, z);
            float hd = at(x, z > 0 ? z - 1 : z);
            float hu = at(x, z < n ? z + 1 : z);
            Vec3 nrm{(hl - hr) / (2 * step), 1.0f, (hd - hu) / (2 * step)};
            m.verts[z * (n + 1) + x].normal = nrm.normalized();
        }
    }
    for (unsigned z = 0; z < n; ++z) {
        for (unsigned x = 0; x < n; ++x) {
            u32 i0 = z * (n + 1) + x;
            u32 i1 = i0 + 1;
            u32 i2 = i0 + (n + 1);
            u32 i3 = i2 + 1;
            m.indices.insert(m.indices.end(), {i0, i2, i1, i1, i2, i3});
        }
    }
    return m;
}

Mesh
makeColumn(Vec3 base, float radius, float height, unsigned segments,
           float uv_scale)
{
    TEXPIM_ASSERT(segments >= 3, "column needs at least 3 segments");
    Mesh m;
    constexpr float kTau = 6.283185307179586f;
    for (unsigned s = 0; s < segments; ++s) {
        float a0 = kTau * float(s) / float(segments);
        float a1 = kTau * float(s + 1) / float(segments);
        Vec3 p0{base.x + radius * std::cos(a0), base.y,
                base.z + radius * std::sin(a0)};
        Vec3 p1{base.x + radius * std::cos(a1), base.y,
                base.z + radius * std::sin(a1)};
        Mesh face = makeQuad(p0, p1 - p0, {0, height, 0},
                             uv_scale / float(segments));
        // Each side strip maps its own uv band (see offsetUv in
        // makeBox for why aliasing faces would be harmful).
        offsetUv(face, float(s) * uv_scale / float(segments), 0.0f);
        m.append(face);
    }
    return m;
}

} // namespace texpim
