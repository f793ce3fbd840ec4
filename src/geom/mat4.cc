#include "geom/mat4.hh"

#include <cmath>

namespace texpim {

Mat4::Mat4()
{
    m_.fill(0.0f);
    at(0, 0) = at(1, 1) = at(2, 2) = at(3, 3) = 1.0f;
}

Mat4
Mat4::operator*(const Mat4 &o) const
{
    Mat4 r;
    for (int c = 0; c < 4; ++c) {
        for (int row = 0; row < 4; ++row) {
            float acc = 0.0f;
            for (int k = 0; k < 4; ++k)
                acc += at(row, k) * o.at(k, c);
            r.at(row, c) = acc;
        }
    }
    return r;
}

Vec4
Mat4::operator*(Vec4 v) const
{
    return {
        at(0, 0) * v.x + at(0, 1) * v.y + at(0, 2) * v.z + at(0, 3) * v.w,
        at(1, 0) * v.x + at(1, 1) * v.y + at(1, 2) * v.z + at(1, 3) * v.w,
        at(2, 0) * v.x + at(2, 1) * v.y + at(2, 2) * v.z + at(2, 3) * v.w,
        at(3, 0) * v.x + at(3, 1) * v.y + at(3, 2) * v.z + at(3, 3) * v.w,
    };
}

Vec3
Mat4::transformPoint(Vec3 p) const
{
    Vec4 r = (*this) * Vec4{p, 1.0f};
    return r.xyz();
}

Vec3
Mat4::transformDir(Vec3 d) const
{
    Vec4 r = (*this) * Vec4{d, 0.0f};
    return r.xyz();
}

Mat4
Mat4::identity()
{
    return Mat4{};
}

Mat4
Mat4::translate(Vec3 t)
{
    Mat4 r;
    r.at(0, 3) = t.x;
    r.at(1, 3) = t.y;
    r.at(2, 3) = t.z;
    return r;
}

Mat4
Mat4::scale(Vec3 s)
{
    Mat4 r;
    r.at(0, 0) = s.x;
    r.at(1, 1) = s.y;
    r.at(2, 2) = s.z;
    return r;
}

Mat4
Mat4::rotateY(float a)
{
    Mat4 r;
    float c = std::cos(a), s = std::sin(a);
    r.at(0, 0) = c;
    r.at(0, 2) = s;
    r.at(2, 0) = -s;
    r.at(2, 2) = c;
    return r;
}

Mat4
Mat4::lookAt(Vec3 eye, Vec3 center, Vec3 up)
{
    Vec3 f = (center - eye).normalized();
    Vec3 s = f.cross(up).normalized();
    Vec3 u = s.cross(f);

    Mat4 r;
    r.at(0, 0) = s.x;
    r.at(0, 1) = s.y;
    r.at(0, 2) = s.z;
    r.at(1, 0) = u.x;
    r.at(1, 1) = u.y;
    r.at(1, 2) = u.z;
    r.at(2, 0) = -f.x;
    r.at(2, 1) = -f.y;
    r.at(2, 2) = -f.z;
    r.at(0, 3) = -s.dot(eye);
    r.at(1, 3) = -u.dot(eye);
    r.at(2, 3) = f.dot(eye);
    return r;
}

Mat4
Mat4::perspective(float fovy, float aspect, float z_near, float z_far)
{
    float t = std::tan(fovy * 0.5f);
    Mat4 r;
    r.at(0, 0) = 1.0f / (aspect * t);
    r.at(1, 1) = 1.0f / t;
    r.at(2, 2) = -(z_far + z_near) / (z_far - z_near);
    r.at(2, 3) = -(2.0f * z_far * z_near) / (z_far - z_near);
    r.at(3, 2) = -1.0f;
    r.at(3, 3) = 0.0f;
    return r;
}

} // namespace texpim
