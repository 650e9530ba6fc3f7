#include "geometry/polygon.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gia::geometry {

namespace {

Polygon ccw_ring(Polygon poly) {
  if (signed_area(poly) < 0.0) std::reverse(poly.pts.begin(), poly.pts.end());
  return poly;
}

}  // namespace

double signed_area(const Polygon& poly) {
  const std::size_t n = poly.size();
  if (n < 3) return 0.0;
  double twice = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = poly[i];
    const Point& b = poly[(i + 1) % n];
    twice += a.x * b.y - b.x * a.y;
  }
  return twice / 2.0;
}

double area(const Polygon& poly) { return std::abs(signed_area(poly)); }

Point centroid(const Polygon& poly) {
  if (poly.empty()) return {0, 0};
  Point c{0, 0};
  for (const Point& p : poly.pts) {
    c.x += p.x;
    c.y += p.y;
  }
  const double n = static_cast<double>(poly.size());
  return {c.x / n, c.y / n};
}

Rect bounding_box(const Polygon& poly) {
  if (poly.empty()) return {};
  Rect r{poly[0].x, poly[0].y, poly[0].x, poly[0].y};
  for (const Point& p : poly.pts) {
    r.lx = std::min(r.lx, p.x);
    r.ly = std::min(r.ly, p.y);
    r.ux = std::max(r.ux, p.x);
    r.uy = std::max(r.uy, p.y);
  }
  return r;
}

bool is_convex(const Polygon& poly) {
  const std::size_t n = poly.size();
  if (n < 3) return true;
  int sign = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Orientation o = orientation(poly[i], poly[(i + 1) % n], poly[(i + 2) % n]);
    if (o == Orientation::Collinear) continue;
    const int s = o == Orientation::CounterClockwise ? 1 : -1;
    if (sign == 0) {
      sign = s;
    } else if (s != sign) {
      return false;
    }
  }
  return true;
}

Containment contains(const Polygon& poly, Point p) {
  const std::size_t n = poly.size();
  if (n == 0) return Containment::Outside;
  for (std::size_t i = 0; i < n; ++i) {
    if (on_segment(poly[i], poly[(i + 1) % n], p)) return Containment::Boundary;
  }
  // Exact-sign crossing count of a rightward ray; boundary hits are already
  // classified above, so strict comparisons are safe here.
  bool inside = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = poly[i];
    const Point& b = poly[(i + 1) % n];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double o = orient2d(a, b, p);
      if (b.y > a.y ? o > 0.0 : o < 0.0) inside = !inside;
    }
  }
  return inside ? Containment::Inside : Containment::Outside;
}

Polygon rect_polygon(const Rect& r) {
  return Polygon{{{r.lx, r.ly}, {r.ux, r.ly}, {r.ux, r.uy}, {r.lx, r.uy}}};
}

Polygon clip_halfplane(const Polygon& poly, Point n, double c) {
  const std::size_t cnt = poly.size();
  if (cnt == 0) return {};
  auto val = [&](const Point& p) { return n.x * p.x + n.y * p.y; };
  Polygon out;
  for (std::size_t i = 0; i < cnt; ++i) {
    const Point& prev = poly[(i + cnt - 1) % cnt];
    const Point& cur = poly[i];
    const double vp = val(prev), vc = val(cur);
    const bool prev_in = vp <= c, cur_in = vc <= c;
    if (cur_in) {
      if (!prev_in) {
        const double t = (c - vp) / (vc - vp);
        out.pts.push_back({prev.x + t * (cur.x - prev.x), prev.y + t * (cur.y - prev.y)});
      }
      out.pts.push_back(cur);
    } else if (prev_in) {
      const double t = (c - vp) / (vc - vp);
      out.pts.push_back({prev.x + t * (cur.x - prev.x), prev.y + t * (cur.y - prev.y)});
    }
  }
  return out;
}

Polygon offset_convex(const Polygon& poly, double delta) {
  if (poly.size() < 3 || area(poly) == 0.0) {
    throw std::invalid_argument("offset_convex: degenerate outline");
  }
  if (!is_convex(poly)) {
    throw std::invalid_argument("offset_convex: non-convex outline offsets are not supported");
  }
  const Polygon ring = ccw_ring(poly);
  // Start from a box guaranteed to contain the result and clip it by the
  // outward-shifted edge half-planes (miter joins fall out of the
  // half-plane intersection).
  const Rect bb = bounding_box(ring);
  const double pad = std::abs(delta) + std::max(bb.width(), bb.height()) + 1.0;
  Polygon out = rect_polygon(bb.inflated(pad));
  const std::size_t n = ring.size();
  for (std::size_t i = 0; i < n && !out.empty(); ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1) % n];
    const double len = std::hypot(b.x - a.x, b.y - a.y);
    if (len == 0.0) continue;
    // For a CCW ring the outward normal of edge a->b points right of the
    // direction of travel.
    const Point nrm{(b.y - a.y) / len, -(b.x - a.x) / len};
    out = clip_halfplane(out, nrm, nrm.x * a.x + nrm.y * a.y + delta);
  }
  if (out.size() < 3 || area(out) == 0.0) return {};
  return out;
}

bool convex_overlap(const Polygon& a, const Polygon& b) {
  if (a.size() < 3 || b.size() < 3) return false;
  if (!is_convex(b)) throw std::invalid_argument("convex_overlap: non-convex ring");
  if (area(b) == 0.0) return false;
  // Sutherland-Hodgman: clip `a` against every edge of `b`'s CCW ring,
  // keeping the left side by the exact orientation sign.
  const Polygon window = ccw_ring(b);
  Polygon out = a;
  const std::size_t n = window.size();
  for (std::size_t e = 0; e < n && !out.empty(); ++e) {
    const Point p = window[e];
    const Point q = window[(e + 1) % n];
    Polygon in = std::move(out);
    out = Polygon{};
    const std::size_t m = in.size();
    for (std::size_t i = 0; i < m; ++i) {
      const Point& prev = in[(i + m - 1) % m];
      const Point& cur = in[i];
      const double o_prev = orient2d(p, q, prev);
      const double o_cur = orient2d(p, q, cur);
      // Only called when prev and cur straddle the line, so the
      // denominator is nonzero.
      auto cross = [&] {
        const double t = o_prev / (o_prev - o_cur);
        return Point{prev.x + t * (cur.x - prev.x), prev.y + t * (cur.y - prev.y)};
      };
      if (o_cur >= 0.0) {
        if (o_prev < 0.0) out.pts.push_back(cross());
        out.pts.push_back(cur);
      } else if (o_prev >= 0.0) {
        out.pts.push_back(cross());
      }
    }
  }
  // Positive-area intersection required: touching edges/corners produce
  // only roundoff-scale slivers, rejected by the relative tolerance.
  const double tol = 1e-9 * std::max(1.0, std::min(area(a), area(b)));
  return out.size() >= 3 && area(out) > tol;
}

double convex_clearance(const Polygon& a, const Polygon& b) {
  if (a.empty() || b.empty()) return 0.0;
  if (!a.pts.empty() && !b.pts.empty()) {
    if (contains(a, b[0]) != Containment::Outside || contains(b, a[0]) != Containment::Outside) {
      return 0.0;
    }
  }
  double best = std::numeric_limits<double>::infinity();
  const std::size_t na = a.size(), nb = b.size();
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      best = std::min(best, segment_segment_distance(a[i], a[(i + 1) % na], b[j], b[(j + 1) % nb]));
    }
  }
  return best;
}

}  // namespace gia::geometry
