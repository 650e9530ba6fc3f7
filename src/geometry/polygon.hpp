#pragma once

#include <vector>

#include "geometry/point.hpp"
#include "geometry/predicates.hpp"
#include "geometry/rect.hpp"

/// \file polygon.hpp
/// Simple-polygon operations on top of the exact predicates: signed area,
/// point containment with an explicit boundary class, half-plane clipping,
/// miter offsetting of convex outlines for keep-out margins, and the
/// overlap/clearance tests the floorplanner and router run on them.
/// Degenerate inputs (zero-area polygons, clips to nothing) produce
/// well-defined results; operations whose result would be ill-defined
/// (offsetting a non-convex outline, overlapping against a non-convex ring)
/// reject loudly with std::invalid_argument.

namespace gia::geometry {

/// A simple polygon as an open vertex ring (no repeated closing vertex).
/// Vertex order may be CW or CCW; `signed_area` exposes which.
struct Polygon {
  std::vector<Point> pts;

  Polygon() = default;
  explicit Polygon(std::vector<Point> p) : pts(std::move(p)) {}

  std::size_t size() const { return pts.size(); }
  bool empty() const { return pts.empty(); }
  Point& operator[](std::size_t i) { return pts[i]; }
  const Point& operator[](std::size_t i) const { return pts[i]; }
};

/// Shoelace area: positive for counter-clockwise rings, 0 for degenerate
/// (fewer than 3 vertices or collinear) rings.
double signed_area(const Polygon& poly);
/// |signed_area|.
double area(const Polygon& poly);

/// Vertex-average centroid (robust for the convex outlines used here;
/// degenerate polygons return the mean of whatever vertices exist).
Point centroid(const Polygon& poly);

/// Axis-aligned bounding box; a default Rect for empty polygons.
Rect bounding_box(const Polygon& poly);

/// Is the ring convex? Collinear vertices are allowed; polygons with fewer
/// than 3 vertices count as (degenerately) convex.
bool is_convex(const Polygon& poly);

/// Point-vs-polygon with the boundary as its own class, exact on the
/// boundary thanks to the orientation predicate. Zero-area polygons contain
/// only their boundary points.
enum class Containment { Outside, Boundary, Inside };
Containment contains(const Polygon& poly, Point p);

/// The four rect corners as a counter-clockwise polygon.
Polygon rect_polygon(const Rect& r);

/// Clip a convex ring against the half-plane n.p <= c (keep side).
Polygon clip_halfplane(const Polygon& poly, Point n, double c);

/// Miter-offset a convex ring outward by `delta` (negative shrinks). The
/// result is the intersection of the edge half-planes shifted by delta, so
/// inward offsets that collapse the ring return an empty polygon. Throws
/// std::invalid_argument for non-convex or degenerate (< 3 vertices, zero
/// area) input -- offsets of non-convex outlines are not well-defined here
/// and must be rejected loudly.
Polygon offset_convex(const Polygon& poly, double delta);

/// Do two convex rings share interior area? (Touching edges/corners do not
/// count: intersection of positive area required.) `a` is clipped against
/// `b` (Sutherland-Hodgman on exact orientation signs); throws
/// std::invalid_argument when `b` is not convex.
bool convex_overlap(const Polygon& a, const Polygon& b);

/// Euclidean clearance between two convex rings: 0 when they overlap or
/// touch, otherwise the minimum edge-to-edge distance.
double convex_clearance(const Polygon& a, const Polygon& b);

}  // namespace gia::geometry
