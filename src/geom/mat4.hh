/**
 * @file
 * Column-major 4x4 matrix with the usual 3D-rendering constructors
 * (perspective, lookAt, translate/rotate/scale).
 */

#ifndef TEXPIM_GEOM_MAT4_HH
#define TEXPIM_GEOM_MAT4_HH

#include <array>

#include "geom/vec.hh"

namespace texpim {

class Mat4
{
  public:
    /** Identity by default. */
    Mat4();

    /** Element access: row r, column c. */
    float &at(int r, int c) { return m_[size_t(c) * 4 + size_t(r)]; }
    float at(int r, int c) const { return m_[size_t(c) * 4 + size_t(r)]; }

    Mat4 operator*(const Mat4 &o) const;
    Vec4 operator*(Vec4 v) const;

    /** Transform a point (w = 1) and drop back to 3D without dividing. */
    Vec3 transformPoint(Vec3 p) const;

    /** Transform a direction (w = 0). */
    Vec3 transformDir(Vec3 d) const;

    static Mat4 identity();
    static Mat4 translate(Vec3 t);
    static Mat4 scale(Vec3 s);
    static Mat4 rotateY(float radians);

    /** Right-handed lookAt (OpenGL convention, looking down -Z). */
    static Mat4 lookAt(Vec3 eye, Vec3 center, Vec3 up);

    /** Right-handed perspective projection, depth to [-1, 1]. */
    static Mat4 perspective(float fovy_radians, float aspect, float z_near,
                            float z_far);

  private:
    std::array<float, 16> m_;
};

} // namespace texpim

#endif // TEXPIM_GEOM_MAT4_HH
