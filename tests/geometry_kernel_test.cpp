#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "geometry/polygon.hpp"
#include "geometry/predicates.hpp"

namespace g = gia::geometry;

namespace {

g::Polygon poly(std::initializer_list<g::Point> pts) {
  return g::Polygon(std::vector<g::Point>(pts));
}

}  // namespace

// ---------------------------------------------------------------------------
// Exact predicates: the degenerate configurations must classify
// deterministically, not by rounding luck.
// ---------------------------------------------------------------------------

TEST(Predicates, OrientationSigns) {
  EXPECT_EQ(g::orientation({0, 0}, {1, 0}, {0, 1}), g::Orientation::CounterClockwise);
  EXPECT_EQ(g::orientation({0, 0}, {0, 1}, {1, 0}), g::Orientation::Clockwise);
  EXPECT_EQ(g::orientation({0, 0}, {1, 1}, {2, 2}), g::Orientation::Collinear);
}

TEST(Predicates, NearlyCollinearIsExact) {
  // Points on the line y = x with coordinates that round badly in naive
  // double evaluation; the adaptive path must still report collinear for
  // exactly collinear triples and a consistent sign for perturbed ones.
  const g::Point a{1e-12, 1e-12}, b{1e12, 1e12};
  EXPECT_EQ(g::orientation(a, b, {0.5, 0.5}), g::Orientation::Collinear);
  EXPECT_EQ(g::orientation(a, b, {0.5, std::nextafter(0.5, 1.0)}),
            g::Orientation::CounterClockwise);
  EXPECT_EQ(g::orientation(a, b, {0.5, std::nextafter(0.5, 0.0)}), g::Orientation::Clockwise);
}

TEST(Predicates, TouchingEndpointIsTouchNotProper) {
  // Shared endpoint.
  EXPECT_EQ(g::segment_intersection({0, 0}, {1, 0}, {1, 0}, {2, 5}), g::SegmentCross::Touch);
  // Endpoint in the other segment's interior (T junction).
  EXPECT_EQ(g::segment_intersection({0, 0}, {2, 0}, {1, 0}, {1, 3}), g::SegmentCross::Touch);
  // Interiors crossing.
  EXPECT_EQ(g::segment_intersection({0, 0}, {2, 2}, {0, 2}, {2, 0}), g::SegmentCross::Proper);
  // Collinear with positive-length shared sub-segment.
  EXPECT_EQ(g::segment_intersection({0, 0}, {2, 0}, {1, 0}, {3, 0}), g::SegmentCross::Overlap);
  // Collinear but disjoint.
  EXPECT_EQ(g::segment_intersection({0, 0}, {1, 0}, {2, 0}, {3, 0}), g::SegmentCross::None);
  // Collinear touching only at one endpoint: a single shared point, not an
  // overlap of positive length.
  EXPECT_EQ(g::segment_intersection({0, 0}, {1, 0}, {1, 0}, {2, 0}), g::SegmentCross::Touch);
}

TEST(Predicates, SegmentDistances) {
  EXPECT_DOUBLE_EQ(g::point_segment_distance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(g::point_segment_distance({3, 4}, {-1, 0}, {1, 0}), std::hypot(2.0, 4.0));
  EXPECT_DOUBLE_EQ(g::segment_segment_distance({0, 0}, {2, 2}, {0, 2}, {2, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g::segment_segment_distance({0, 0}, {1, 0}, {0, 2}, {1, 2}), 2.0);
}

// ---------------------------------------------------------------------------
// Containment degeneracies.
// ---------------------------------------------------------------------------

TEST(Containment, ZeroAreaPolygonContainsOnlyBoundary) {
  auto degenerate = poly({{0, 0}, {2, 0}, {1, 0}});
  EXPECT_DOUBLE_EQ(g::area(degenerate), 0.0);
  EXPECT_EQ(g::contains(degenerate, {1, 0}), g::Containment::Boundary);
  EXPECT_EQ(g::contains(degenerate, {1, 0.001}), g::Containment::Outside);
  EXPECT_EQ(g::contains(degenerate, {3, 0}), g::Containment::Outside);
}

TEST(Containment, BoundaryIsItsOwnClass) {
  auto sq = poly({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_EQ(g::contains(sq, {2, 2}), g::Containment::Inside);
  EXPECT_EQ(g::contains(sq, {4, 2}), g::Containment::Boundary);
  EXPECT_EQ(g::contains(sq, {4, 4}), g::Containment::Boundary);  // corner
  EXPECT_EQ(g::contains(sq, {5, 2}), g::Containment::Outside);
  // Ray through a vertex must not double-count the crossing.
  auto diamond = poly({{0, -2}, {2, 0}, {0, 2}, {-2, 0}});
  EXPECT_EQ(g::contains(diamond, {-1, 0}), g::Containment::Inside);
  EXPECT_EQ(g::contains(diamond, {-3, 0}), g::Containment::Outside);
}

// ---------------------------------------------------------------------------
// Clipping degeneracies.
// ---------------------------------------------------------------------------

TEST(Clip, DisjointWindowsClipToEmpty) {
  auto subject = poly({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  auto window = poly({{5, 5}, {6, 5}, {6, 6}, {5, 6}});
  EXPECT_FALSE(g::convex_overlap(subject, window));
  EXPECT_FALSE(g::convex_overlap(window, subject));
  // Keep x <= 4: the subject's half-plane clip is the whole subject, the
  // window's is nothing.
  EXPECT_DOUBLE_EQ(g::area(g::clip_halfplane(subject, {1, 0}, 4.0)), 1.0);
  EXPECT_TRUE(g::clip_halfplane(window, {1, 0}, 4.0).empty());
}

TEST(Clip, TouchingEdgeClipsToZeroArea) {
  // Subject shares the x=1 edge with the window: the intersection is a
  // degenerate sliver of zero area, never a crash or a fat polygon.
  auto subject = poly({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  auto window = poly({{1, 0}, {2, 0}, {2, 1}, {1, 1}});
  EXPECT_FALSE(g::convex_overlap(subject, window));
  // Keep x >= 1.
  EXPECT_DOUBLE_EQ(g::area(g::clip_halfplane(subject, {-1, 0}, -1.0)), 0.0);
}

TEST(Clip, HalfplaneAndNonConvexWindow) {
  auto sq = poly({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  // Keep x <= 2.
  auto half = g::clip_halfplane(sq, {1, 0}, 2.0);
  EXPECT_DOUBLE_EQ(g::area(half), 8.0);
  // Clip-to-nothing: keep x <= -1.
  EXPECT_TRUE(g::clip_halfplane(sq, {1, 0}, -1.0).empty());
  // A non-convex clip window is rejected, not silently mis-clipped.
  auto ell = poly({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_THROW(g::convex_overlap(sq, ell), std::invalid_argument);
  EXPECT_TRUE(g::convex_overlap(ell, sq));
}

TEST(Clip, ZeroAreaSubjectStaysWellDefined) {
  auto sliver = poly({{0, 0}, {4, 0}, {2, 0}});
  auto window = poly({{1, -1}, {3, -1}, {3, 1}, {1, 1}});
  EXPECT_FALSE(g::convex_overlap(sliver, window));
  EXPECT_FALSE(g::convex_overlap(window, sliver));
  EXPECT_DOUBLE_EQ(g::area(g::clip_halfplane(sliver, {1, 0}, 3.0)), 0.0);
}

// ---------------------------------------------------------------------------
// Offsetting: keep-out inflation must reject ill-defined inputs loudly.
// ---------------------------------------------------------------------------

TEST(Offset, InflatesConvexRing) {
  auto sq = poly({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  auto out = g::offset_convex(sq, 1.0);
  EXPECT_DOUBLE_EQ(g::area(out), 16.0);  // miter corners: 4x4 square
  EXPECT_EQ(g::contains(out, {-1, -1}), g::Containment::Boundary);
  auto in = g::offset_convex(sq, -0.5);
  EXPECT_DOUBLE_EQ(g::area(in), 1.0);
}

TEST(Offset, CollapsingShrinkReturnsEmpty) {
  auto sq = poly({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  EXPECT_TRUE(g::offset_convex(sq, -1.5).empty());
}

TEST(Offset, RejectsNonConvexAndDegenerate) {
  auto ell = poly({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_THROW(g::offset_convex(ell, 1.0), std::invalid_argument);
  auto segment = poly({{0, 0}, {1, 0}});
  EXPECT_THROW(g::offset_convex(segment, 1.0), std::invalid_argument);
  auto zero_area = poly({{0, 0}, {1, 0}, {2, 0}});
  EXPECT_THROW(g::offset_convex(zero_area, 1.0), std::invalid_argument);
}

TEST(Overlap, TouchingIsNotOverlap) {
  auto a = poly({{0, 0}, {2, 0}, {2, 2}, {0, 2}});
  auto b = poly({{2, 0}, {4, 0}, {4, 2}, {2, 2}});  // shares the x=2 edge
  auto c = poly({{1, 1}, {3, 1}, {3, 3}, {1, 3}});
  EXPECT_FALSE(g::convex_overlap(a, b));
  EXPECT_TRUE(g::convex_overlap(a, c));
  EXPECT_DOUBLE_EQ(g::convex_clearance(a, b), 0.0);
  EXPECT_DOUBLE_EQ(g::convex_clearance(a, c), 0.0);
  auto far = poly({{5, 0}, {6, 0}, {6, 2}, {5, 2}});
  EXPECT_DOUBLE_EQ(g::convex_clearance(a, far), 3.0);
}
