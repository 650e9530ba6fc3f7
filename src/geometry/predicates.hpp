#pragma once

#include "geometry/point.hpp"

/// \file predicates.hpp
/// Exact geometric predicates in the style of Shewchuk's adaptive-precision
/// arithmetic: `orient2d` evaluates the sign of the 2x2 orientation
/// determinant with a floating-point filter and falls back to an exact
/// expansion-arithmetic evaluation only when the filter cannot certify the
/// sign. Everything above this file (clipping, overlap, visibility routing)
/// branches on these signs, so degenerate inputs -- collinear triples,
/// touching segments, shared endpoints -- classify deterministically instead
/// of depending on rounding luck.

namespace gia::geometry {

/// Sign of the orientation determinant of the triangle (a, b, c):
/// positive when c lies to the left of the directed line a->b
/// (counter-clockwise), negative to the right, exactly zero when collinear.
/// The magnitude is twice the signed triangle area (approximate in the
/// filtered fast path, exact-sign always).
double orient2d(Point a, Point b, Point c);

/// Discrete orientation from the exact-sign determinant.
enum class Orientation { Clockwise = -1, Collinear = 0, CounterClockwise = 1 };
Orientation orientation(Point a, Point b, Point c);

/// Is p on the closed segment [a, b]? (Exact: collinearity via orient2d
/// plus a bounding-box test.)
bool on_segment(Point a, Point b, Point p);

/// How two closed segments [a,b] and [c,d] meet.
enum class SegmentCross {
  None,     ///< disjoint
  Proper,   ///< interiors cross at a single point
  Touch,    ///< meet at exactly one point involving an endpoint
  Overlap   ///< collinear with a shared sub-segment of positive length
};
SegmentCross segment_intersection(Point a, Point b, Point c, Point d);

/// Euclidean distance from p to the closed segment [a, b].
double point_segment_distance(Point p, Point a, Point b);

/// Euclidean distance between two closed segments (0 when they meet).
double segment_segment_distance(Point a, Point b, Point c, Point d);

}  // namespace gia::geometry
