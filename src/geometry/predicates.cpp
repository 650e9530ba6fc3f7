#include "geometry/predicates.hpp"

#include <algorithm>
#include <cmath>

namespace gia::geometry {

namespace {

// --- Adaptive-precision scaffolding (Shewchuk, "Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates"). Doubles
// are split into non-overlapping expansions whose exact sum is the true
// value; the orientation determinant is evaluated in stages, each certified
// by an error bound, so the exact tail only runs on (near-)degenerate
// inputs.

constexpr double kEps = 1.1102230246251565e-16;  // 2^-53: half a double ulp
constexpr double kSplitter = 134217729.0;        // 2^27 + 1
constexpr double kCcwErrBoundA = (3.0 + 16.0 * kEps) * kEps;
constexpr double kCcwErrBoundB = (2.0 + 12.0 * kEps) * kEps;
constexpr double kCcwErrBoundC = (9.0 + 64.0 * kEps) * kEps * kEps;
constexpr double kResultErrBound = (3.0 + 8.0 * kEps) * kEps;

inline void fast_two_sum(double a, double b, double& x, double& y) {
  // Requires |a| >= |b|.
  x = a + b;
  y = b - (x - a);
}

inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  const double bvirt = x - a;
  const double avirt = x - bvirt;
  y = (a - avirt) + (b - bvirt);
}

inline void two_diff(double a, double b, double& x, double& y) {
  x = a - b;
  const double bvirt = a - x;
  const double avirt = x + bvirt;
  y = (a - avirt) + (bvirt - b);
}

inline double two_diff_tail(double a, double b, double x) {
  const double bvirt = a - x;
  const double avirt = x + bvirt;
  return (a - avirt) + (bvirt - b);
}

inline void split(double a, double& hi, double& lo) {
  const double c = kSplitter * a;
  const double abig = c - a;
  hi = c - abig;
  lo = a - hi;
}

inline void two_product(double a, double b, double& x, double& y) {
  x = a * b;
  double ahi, alo, bhi, blo;
  split(a, ahi, alo);
  split(b, bhi, blo);
  const double err1 = x - (ahi * bhi);
  const double err2 = err1 - (alo * bhi);
  const double err3 = err2 - (ahi * blo);
  y = (alo * blo) - err3;
}

inline void two_one_diff(double a1, double a0, double b, double& x2, double& x1, double& x0) {
  double i;
  two_diff(a0, b, i, x0);
  two_sum(a1, i, x2, x1);
}

/// (a1 + a0) - (b1 + b0) as the 4-component expansion x3..x0.
inline void two_two_diff(double a1, double a0, double b1, double b0, double& x3, double& x2,
                         double& x1, double& x0) {
  double j, t;
  two_one_diff(a1, a0, b0, j, t, x0);
  two_one_diff(j, t, b1, x3, x2, x1);
}

/// Sum of expansions e + f into h, eliminating zero components. Returns the
/// length of h (h must hold elen + flen doubles).
int fast_expansion_sum_zeroelim(int elen, const double* e, int flen, const double* f, double* h) {
  int eindex = 0, findex = 0, hindex = 0;
  auto take = [&]() {
    if (eindex < elen &&
        (findex >= flen || ((f[findex] > e[eindex]) == (f[findex] > -e[eindex])))) {
      return e[eindex++];
    }
    return f[findex++];
  };
  double q = take(), qnew, hh;
  bool first = true;
  while (eindex < elen || findex < flen) {
    const double now = take();
    if (first) {
      fast_two_sum(now, q, qnew, hh);  // |now| >= |q|: components merge in magnitude order
      first = false;
    } else {
      two_sum(q, now, qnew, hh);
    }
    q = qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (q != 0.0 || hindex == 0) h[hindex++] = q;
  return hindex;
}

double estimate(int elen, const double* e) {
  double q = e[0];
  for (int i = 1; i < elen; ++i) q += e[i];
  return q;
}

double orient2d_adapt(Point pa, Point pb, Point pc, double detsum) {
  const double acx = pa.x - pc.x;
  const double bcx = pb.x - pc.x;
  const double acy = pa.y - pc.y;
  const double bcy = pb.y - pc.y;

  double detleft, detlefttail, detright, detrighttail;
  two_product(acx, bcy, detleft, detlefttail);
  two_product(acy, bcx, detright, detrighttail);

  double B[4];
  two_two_diff(detleft, detlefttail, detright, detrighttail, B[3], B[2], B[1], B[0]);

  double det = estimate(4, B);
  double errbound = kCcwErrBoundB * detsum;
  if (det >= errbound || -det >= errbound) return det;

  const double acxtail = two_diff_tail(pa.x, pc.x, acx);
  const double bcxtail = two_diff_tail(pb.x, pc.x, bcx);
  const double acytail = two_diff_tail(pa.y, pc.y, acy);
  const double bcytail = two_diff_tail(pb.y, pc.y, bcy);
  if (acxtail == 0.0 && acytail == 0.0 && bcxtail == 0.0 && bcytail == 0.0) return det;

  errbound = kCcwErrBoundC * detsum + kResultErrBound * std::abs(det);
  det += (acx * bcytail + bcy * acxtail) - (acy * bcxtail + bcx * acytail);
  if (det >= errbound || -det >= errbound) return det;

  double s1, s0, t1, t0, u[4];
  double C1[8], C2[12], D[16];

  two_product(acxtail, bcy, s1, s0);
  two_product(acytail, bcx, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  const int c1len = fast_expansion_sum_zeroelim(4, B, 4, u, C1);

  two_product(acx, bcytail, s1, s0);
  two_product(acy, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  const int c2len = fast_expansion_sum_zeroelim(c1len, C1, 4, u, C2);

  two_product(acxtail, bcytail, s1, s0);
  two_product(acytail, bcxtail, t1, t0);
  two_two_diff(s1, s0, t1, t0, u[3], u[2], u[1], u[0]);
  const int dlen = fast_expansion_sum_zeroelim(c2len, C2, 4, u, D);

  return D[dlen - 1];
}

}  // namespace

double orient2d(Point pa, Point pb, Point pc) {
  const double detleft = (pa.x - pc.x) * (pb.y - pc.y);
  const double detright = (pa.y - pc.y) * (pb.x - pc.x);
  const double det = detleft - detright;
  double detsum;
  if (detleft > 0.0) {
    if (detright <= 0.0) return det;
    detsum = detleft + detright;
  } else if (detleft < 0.0) {
    if (detright >= 0.0) return det;
    detsum = -detleft - detright;
  } else {
    return det;
  }
  const double errbound = kCcwErrBoundA * detsum;
  if (det >= errbound || -det >= errbound) return det;
  return orient2d_adapt(pa, pb, pc, detsum);
}

Orientation orientation(Point a, Point b, Point c) {
  const double d = orient2d(a, b, c);
  if (d > 0.0) return Orientation::CounterClockwise;
  if (d < 0.0) return Orientation::Clockwise;
  return Orientation::Collinear;
}

bool on_segment(Point a, Point b, Point p) {
  if (orientation(a, b, p) != Orientation::Collinear) return false;
  return p.x >= std::min(a.x, b.x) && p.x <= std::max(a.x, b.x) &&
         p.y >= std::min(a.y, b.y) && p.y <= std::max(a.y, b.y);
}

SegmentCross segment_intersection(Point a, Point b, Point c, Point d) {
  const Orientation o1 = orientation(a, b, c);
  const Orientation o2 = orientation(a, b, d);
  const Orientation o3 = orientation(c, d, a);
  const Orientation o4 = orientation(c, d, b);

  if (o1 != o2 && o3 != o4 && o1 != Orientation::Collinear && o2 != Orientation::Collinear &&
      o3 != Orientation::Collinear && o4 != Orientation::Collinear) {
    return SegmentCross::Proper;
  }

  const bool c_on = on_segment(a, b, c);
  const bool d_on = on_segment(a, b, d);
  const bool a_on = on_segment(c, d, a);
  const bool b_on = on_segment(c, d, b);
  if (!c_on && !d_on && !a_on && !b_on) return SegmentCross::None;

  if (o1 == Orientation::Collinear && o2 == Orientation::Collinear) {
    // Collinear segments: overlap when the shared span has positive length.
    const bool vertical = std::abs(b.x - a.x) < std::abs(b.y - a.y);
    auto coord = [vertical](Point p) { return vertical ? p.y : p.x; };
    const double lo = std::max(std::min(coord(a), coord(b)), std::min(coord(c), coord(d)));
    const double hi = std::min(std::max(coord(a), coord(b)), std::max(coord(c), coord(d)));
    return hi > lo ? SegmentCross::Overlap : SegmentCross::Touch;
  }
  return SegmentCross::Touch;
}

double point_segment_distance(Point p, Point a, Point b) {
  const double dx = b.x - a.x, dy = b.y - a.y;
  const double len2 = dx * dx + dy * dy;
  if (len2 == 0.0) return std::hypot(p.x - a.x, p.y - a.y);
  const double t = std::clamp(((p.x - a.x) * dx + (p.y - a.y) * dy) / len2, 0.0, 1.0);
  return std::hypot(p.x - (a.x + t * dx), p.y - (a.y + t * dy));
}

double segment_segment_distance(Point a, Point b, Point c, Point d) {
  if (segment_intersection(a, b, c, d) != SegmentCross::None) return 0.0;
  return std::min(std::min(point_segment_distance(a, c, d), point_segment_distance(b, c, d)),
                  std::min(point_segment_distance(c, a, b), point_segment_distance(d, a, b)));
}

}  // namespace gia::geometry
