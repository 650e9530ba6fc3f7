#include "interposer/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instrument.hpp"
#include "geometry/polygon.hpp"
#include "geometry/predicates.hpp"

namespace gia::interposer {

namespace instrument = core::instrument;

using geometry::Point;
using geometry::Polyline;

namespace {

struct GridCtx {
  int nx, ny, layers;
  double cell_w, cell_h;
  double ox, oy;  ///< outline origin
  bool manhattan;

  int clamp_x(int x) const { return std::clamp(x, 0, nx - 1); }
  int clamp_y(int y) const { return std::clamp(y, 0, ny - 1); }
  int cell_of_x(double ux) const { return clamp_x(static_cast<int>((ux - ox) / cell_w)); }
  int cell_of_y(double uy) const { return clamp_y(static_cast<int>((uy - oy) / cell_h)); }
  double x_of(int cx) const { return ox + (cx + 0.5) * cell_w; }
  double y_of(int cy) const { return oy + (cy + 0.5) * cell_h; }
  std::size_t idx(int x, int y, int l) const {
    return (static_cast<std::size_t>(l) * ny + y) * nx + x;
  }
  std::size_t plane() const { return static_cast<std::size_t>(nx) * ny; }
  std::size_t size() const { return plane() * layers; }
};

struct Move {
  int dx, dy, dl;
  double base_cost;  ///< um-equivalent
};

using QEntry = std::pair<double, std::size_t>;  // (f = cost + h, node)

/// The routing workspace shared by every net and pass.
struct Workspace {
  GridCtx g;
  const RouterOptions* opts = nullptr;
  /// Track capacity per (x, y) footprint: every layer of a cell has the
  /// same, so one plane serves the whole grid.
  std::vector<double> capacity;
  std::vector<double> usage;
  /// Congestion cost multiplier per cell; add_usage keeps it in step with
  /// `usage` so the search reads it instead of recomputing it per edge.
  std::vector<double> congestion;
  std::vector<std::vector<Move>> layer_moves;
  // A* scratch reused by every net. A cell's dist/prev belong to the
  // current search only when its stamp equals `search`; starting a search
  // bumps `search` instead of clearing the grid.
  std::vector<double> dist;
  std::vector<int> prev;
  std::vector<std::uint32_t> stamp;
  std::uint32_t search = 0;
  std::vector<QEntry> open;  ///< A* open list, a min-heap on (f, node)
  std::vector<std::size_t> chain;

  double capacity_of(std::size_t node) const { return capacity[node % g.plane()]; }

  double congestion_cost(std::size_t node) const {
    const double u = usage[node] / capacity_of(node);
    double mult = 1.0 + opts->congestion_weight * u * u;
    if (u >= 1.0) mult += opts->overflow_penalty * (u - 1.0 + 0.05);
    return mult;
  }

  void add_usage(std::size_t node, double demand) {
    usage[node] += demand;
    congestion[node] = congestion_cost(node);
  }
};

/// Route one lateral net; fills the RoutedNet and the list of grid cells it
/// occupies (for rip-up). Throws when no path exists at all.
void route_one(Workspace& ws, const TopNet& net, RoutedNet& rn,
               std::vector<std::size_t>& cells) {
  const auto& g = ws.g;
  const auto& opts = *ws.opts;
  const double dw = g.cell_w, dh = g.cell_h;
  // A bundle of `bits` wires books that many tracks per crossed cell.
  const double track_demand = static_cast<double>(net.bits);

  const int ax = g.cell_of_x(net.a.x), ay = g.cell_of_y(net.a.y);
  const int bx = g.cell_of_x(net.b.x), by = g.cell_of_y(net.b.y);

  if (++ws.search == 0) {  // stamp wrap-around: forget every older search
    std::fill(ws.stamp.begin(), ws.stamp.end(), 0u);
    ws.search = 1;
  }
  const std::uint32_t search = ws.search;
  const auto dist_of = [&](std::size_t n) {
    return ws.stamp[n] == search ? ws.dist[n] : std::numeric_limits<double>::infinity();
  };
  const auto set_dist = [&](std::size_t n, double d, int from) {
    ws.dist[n] = d;
    ws.prev[n] = from;
    ws.stamp[n] = search;
  };
  auto& open = ws.open;
  open.clear();
  const auto push = [&](QEntry e) {
    open.push_back(e);
    std::push_heap(open.begin(), open.end(), std::greater<>());
  };
  auto heuristic = [&](int x, int y) {
    return std::abs(x - bx) * dw * 0.999 + std::abs(y - by) * dh * 0.999;
  };
  // Bumps land on the top layer; escaping down to layer l costs l+1 vias.
  for (int l = 0; l < g.layers; ++l) {
    const std::size_t s = g.idx(ax, ay, l);
    const double c = (l + 1) * opts.via_cost_um;
    if (c < dist_of(s)) {
      set_dist(s, c, -1);
      push({c + heuristic(ax, ay), s});
    }
  }
  std::size_t goal = std::numeric_limits<std::size_t>::max();
  std::uint64_t expanded = 0;
  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), std::greater<>());
    const auto [f, node] = open.back();
    open.pop_back();
    const int l = static_cast<int>(node / (static_cast<std::size_t>(g.nx) * g.ny));
    const int rem = static_cast<int>(node % (static_cast<std::size_t>(g.nx) * g.ny));
    const int y = rem / g.nx, x = rem % g.nx;
    const double d = ws.dist[node];
    if (f - heuristic(x, y) > d + 1e-9) continue;  // stale entry
    ++expanded;
    if (x == bx && y == by) {
      goal = node;
      break;
    }
    for (const auto& mv : ws.layer_moves[static_cast<std::size_t>(l)]) {
      const int nx2 = x + mv.dx, ny2 = y + mv.dy, nl = l + mv.dl;
      if (nx2 < 0 || nx2 >= g.nx || ny2 < 0 || ny2 >= g.ny || nl < 0 || nl >= g.layers) continue;
      const std::size_t nn = g.idx(nx2, ny2, nl);
      const double step = mv.dl != 0 ? mv.base_cost : mv.base_cost * ws.congestion[nn];
      if (d + step < dist_of(nn) - 1e-12) {
        set_dist(nn, d + step, static_cast<int>(node));
        push({ws.dist[nn] + heuristic(nx2, ny2), nn});
      }
    }
  }
  instrument::counter_add(instrument::Counter::RouterExpansions, expanded);
  if (goal == std::numeric_limits<std::size_t>::max()) {
    throw std::runtime_error("unroutable net " + net.name);
  }

  // Recover the path, accumulate usage, build the polyline.
  auto& chain = ws.chain;
  chain.clear();
  for (std::size_t n = goal;;) {
    chain.push_back(n);
    const int p = ws.prev[n];
    if (p < 0) break;
    n = static_cast<std::size_t>(p);
  }
  std::reverse(chain.begin(), chain.end());
  Polyline path;
  double lateral = 0;
  int vias = 0;
  {
    const int l0 = static_cast<int>(chain.front() / (static_cast<std::size_t>(g.nx) * g.ny));
    const int le = static_cast<int>(chain.back() / (static_cast<std::size_t>(g.nx) * g.ny));
    vias += (l0 + 1) + (le + 1);  // entry + exit escapes
  }
  int prev_x = -1, prev_y = -1, prev_l = -1;
  cells.clear();
  for (std::size_t n : chain) {
    const int l = static_cast<int>(n / (static_cast<std::size_t>(g.nx) * g.ny));
    const int rem = static_cast<int>(n % (static_cast<std::size_t>(g.nx) * g.ny));
    const int y = rem / g.nx, x = rem % g.nx;
    if (prev_x >= 0) {
      if (l != prev_l) {
        ++vias;
      } else {
        lateral += std::hypot((x - prev_x) * dw, (y - prev_y) * dh);
        ws.add_usage(n, track_demand);
        cells.push_back(n);
      }
    } else {
      ws.add_usage(n, track_demand);
      cells.push_back(n);
    }
    path.append({g.x_of(x), g.y_of(y)}, l);
    prev_x = x;
    prev_y = y;
    prev_l = l;
  }
  rn.path = std::move(path);
  rn.length_um = lateral;
  rn.vias = vias;
}

/// Any-angle routing support: die keepouts as convex polygon obstacles plus
/// a corner visibility graph shared by every net.
struct VisGraph {
  struct Obstacle {
    geometry::Polygon poly;  ///< inflated die outline (CCW rect)
    geometry::Rect bbox;
    int die = 0;
  };
  std::vector<Obstacle> obs;
  std::vector<Point> corners;
  std::vector<int> corner_obs;  ///< corner index -> obstacle index
  /// Mutually visible corner pairs: adj[i] = (corner j, distance).
  std::vector<std::vector<std::pair<int, double>>> adj;
};

/// Is the open segment p-q blocked by any obstacle (terminal obstacles
/// `skip1`/`skip2` exempt)? Grazing an obstacle boundary (touching a corner
/// or running along an edge) is allowed; crossing the interior is not.
bool segment_blocked(const VisGraph& vis, Point p, Point q, int skip1, int skip2) {
  const double sx0 = std::min(p.x, q.x), sx1 = std::max(p.x, q.x);
  const double sy0 = std::min(p.y, q.y), sy1 = std::max(p.y, q.y);
  for (std::size_t oi = 0; oi < vis.obs.size(); ++oi) {
    if (static_cast<int>(oi) == skip1 || static_cast<int>(oi) == skip2) continue;
    const auto& ob = vis.obs[oi];
    if (sx1 < ob.bbox.lx || sx0 > ob.bbox.ux || sy1 < ob.bbox.ly || sy0 > ob.bbox.uy) continue;
    const auto& pts = ob.poly.pts;
    bool crossed = false;
    for (std::size_t e = 0; e < pts.size() && !crossed; ++e) {
      const Point& e0 = pts[e];
      const Point& e1 = pts[(e + 1) % pts.size()];
      crossed = geometry::segment_intersection(p, q, e0, e1) == geometry::SegmentCross::Proper;
    }
    if (crossed) return true;
    // Corner-to-corner diagonals cross without a proper edge intersection;
    // the midpoint betrays them (obstacles are convex).
    const Point mid{(p.x + q.x) / 2.0, (p.y + q.y) / 2.0};
    if (geometry::contains(ob.poly, mid) == geometry::Containment::Inside) return true;
  }
  return false;
}

VisGraph build_visibility(const InterposerFloorplan& fp, double inflate) {
  VisGraph vis;
  for (std::size_t i = 0; i < fp.dies.size(); ++i) {
    const auto& die = fp.dies[i];
    if (die.embedded) continue;
    VisGraph::Obstacle ob;
    ob.poly = geometry::offset_convex(geometry::rect_polygon(die.outline), inflate);
    ob.bbox = geometry::bounding_box(ob.poly);
    ob.die = static_cast<int>(i);
    vis.obs.push_back(std::move(ob));
  }
  for (std::size_t oi = 0; oi < vis.obs.size(); ++oi) {
    for (const Point& c : vis.obs[oi].poly.pts) {
      vis.corners.push_back(c);
      vis.corner_obs.push_back(static_cast<int>(oi));
    }
  }
  vis.adj.resize(vis.corners.size());
  for (std::size_t i = 0; i < vis.corners.size(); ++i) {
    for (std::size_t j = i + 1; j < vis.corners.size(); ++j) {
      if (!segment_blocked(vis, vis.corners[i], vis.corners[j], -1, -1)) {
        const double d = std::hypot(vis.corners[j].x - vis.corners[i].x,
                                    vis.corners[j].y - vis.corners[i].y);
        vis.adj[i].push_back({static_cast<int>(j), d});
        vis.adj[j].push_back({static_cast<int>(i), d});
      }
    }
  }
  return vis;
}

/// Book an any-angle path's track demand onto the congestion grid by
/// sampling each segment at half-cell steps; fills `cells` for rip-up.
void book_any_angle(Workspace& ws, const std::vector<Point>& path, int layer, double demand,
                    std::vector<std::size_t>& cells) {
  const auto& g = ws.g;
  const double step = std::min(g.cell_w, g.cell_h) / 2.0;
  cells.clear();
  for (std::size_t s = 0; s + 1 < path.size(); ++s) {
    const Point a = path[s], b = path[s + 1];
    const double len = std::hypot(b.x - a.x, b.y - a.y);
    const int n = std::max(1, static_cast<int>(std::ceil(len / step)));
    for (int t = 0; t <= n; ++t) {
      const double f = static_cast<double>(t) / n;
      const Point p{a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f};
      cells.push_back(g.idx(g.cell_of_x(p.x), g.cell_of_y(p.y), layer));
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  for (std::size_t c : cells) ws.add_usage(c, demand);
}

/// Route one net any-angle on `layer`. Returns false when the visibility
/// graph offers no path (caller falls back to the grid router).
bool route_any_angle(Workspace& ws, const VisGraph& vis, const TopNet& net, int layer,
                     RoutedNet& rn, std::vector<std::size_t>& cells) {
  // Terminal dies are not obstacles for their own net: the endpoints sit on
  // them, and escape vias handle the bump-field crossing.
  int skip1 = -1, skip2 = -1;
  for (std::size_t oi = 0; oi < vis.obs.size(); ++oi) {
    const auto& ob = vis.obs[oi];
    if (geometry::contains(ob.poly, net.a) != geometry::Containment::Outside) skip1 = static_cast<int>(oi);
    if (geometry::contains(ob.poly, net.b) != geometry::Containment::Outside) skip2 = static_cast<int>(oi);
  }

  std::vector<Point> pts;
  if (!segment_blocked(vis, net.a, net.b, skip1, skip2)) {
    pts = {net.a, net.b};
  } else {
    // Dijkstra over {a} + corners + {b}. Corner-corner edges are
    // precomputed against every obstacle (conservative for terminal dies);
    // endpoint edges honor the terminal exemptions.
    const int nc = static_cast<int>(vis.corners.size());
    const int src = nc, dst = nc + 1;
    std::vector<double> dist(static_cast<std::size_t>(nc) + 2,
                             std::numeric_limits<double>::infinity());
    std::vector<int> prev(static_cast<std::size_t>(nc) + 2, -1);
    using QEntry = std::pair<double, int>;
    std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
    dist[static_cast<std::size_t>(src)] = 0;
    pq.push({0, src});
    auto point_of = [&](int n) {
      if (n == src) return net.a;
      if (n == dst) return net.b;
      return vis.corners[static_cast<std::size_t>(n)];
    };
    while (!pq.empty()) {
      const auto [d, n] = pq.top();
      pq.pop();
      if (d > dist[static_cast<std::size_t>(n)] + 1e-12) continue;
      if (n == dst) break;
      auto relax = [&](int m, double w) {
        if (d + w < dist[static_cast<std::size_t>(m)] - 1e-12) {
          dist[static_cast<std::size_t>(m)] = d + w;
          prev[static_cast<std::size_t>(m)] = n;
          pq.push({d + w, m});
        }
      };
      const Point pn = point_of(n);
      if (n == src) {
        for (int c = 0; c < nc; ++c) {
          if (!segment_blocked(vis, pn, vis.corners[static_cast<std::size_t>(c)], skip1, skip2)) {
            relax(c, std::hypot(vis.corners[static_cast<std::size_t>(c)].x - pn.x,
                                vis.corners[static_cast<std::size_t>(c)].y - pn.y));
          }
        }
      } else {
        for (const auto& [m, w] : vis.adj[static_cast<std::size_t>(n)]) relax(m, w);
        if (!segment_blocked(vis, pn, net.b, skip1, skip2)) {
          relax(dst, std::hypot(net.b.x - pn.x, net.b.y - pn.y));
        }
      }
    }
    if (!std::isfinite(dist[static_cast<std::size_t>(dst)])) return false;
    for (int n = dst; n >= 0; n = prev[static_cast<std::size_t>(n)]) {
      pts.push_back(point_of(n));
      if (n == src) break;
    }
    std::reverse(pts.begin(), pts.end());
  }

  Polyline path;
  double lateral = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i > 0) lateral += std::hypot(pts[i].x - pts[i - 1].x, pts[i].y - pts[i - 1].y);
    path.append(pts[i], layer);
  }
  book_any_angle(ws, pts, layer, static_cast<double>(net.bits), cells);
  rn.path = std::move(path);
  rn.length_um = lateral;
  rn.vias = 2 * (layer + 1);  // escape down and back up at both terminals
  return true;
}

/// Move an overflowed any-angle net's booked footprint to the layer with
/// the least projected overflow; geometry stays put. Caller has already
/// removed the net's usage.
void rebalance_layer(Workspace& ws, RoutedNet& rn, std::vector<std::size_t>& cells,
                     double demand) {
  if (cells.empty()) return;
  const auto& g = ws.g;
  const std::size_t plane = g.plane();
  std::vector<std::size_t> foot(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) foot[i] = cells[i] % plane;
  int best_l = 0;
  double best_over = std::numeric_limits<double>::infinity();
  for (int l = 0; l < g.layers; ++l) {
    double over = 0;
    for (std::size_t f : foot) {
      const std::size_t n = static_cast<std::size_t>(l) * plane + f;
      over += std::max(0.0, ws.usage[n] + demand - ws.capacity[f]);
    }
    if (over < best_over) {
      best_over = over;
      best_l = l;
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<std::size_t>(best_l) * plane + foot[i];
    ws.add_usage(cells[i], demand);
  }
  Polyline moved;
  for (const auto& pp : rn.path.points()) moved.append(pp.p, best_l);
  rn.path = std::move(moved);
  rn.vias = 2 * (best_l + 1);
}

}  // namespace

RouteResult route_interposer(const tech::Technology& tech, const InterposerFloorplan& fp,
                             const std::vector<TopNet>& nets, const RouterOptions& opts) {
  GIA_SPAN("interposer/route");
  if (opts.grid_nx < 1 || opts.grid_ny < 1) {
    throw std::invalid_argument("router.grid_nx and router.grid_ny must be >= 1 (got " +
                                std::to_string(opts.grid_nx) + " x " +
                                std::to_string(opts.grid_ny) + ")");
  }
  RouteResult out;
  const int avail_layers = std::max(1, tech.rules.metal_layers - 2);
  out.stats.signal_layers_available = avail_layers;

  Workspace ws;
  ws.opts = &opts;
  auto& g = ws.g;
  g.nx = opts.grid_nx;
  g.ny = opts.grid_ny;
  g.layers = avail_layers;
  g.ox = fp.outline.lx;
  g.oy = fp.outline.ly;
  g.cell_w = fp.outline.width() / g.nx;
  g.cell_h = fp.outline.height() / g.ny;
  g.manhattan = tech.routing != tech::RoutingStyle::Diagonal;

  // Capacity per cell per layer (track count crossing the cell), derated
  // under dies where bump breakouts consume resources.
  const double pitch = tech.rules.min_wire_width_um + tech.rules.min_wire_space_um;
  ws.capacity.resize(g.plane());
  ws.usage.assign(g.size(), 0.0);
  for (int y = 0; y < g.ny; ++y) {
    for (int x = 0; x < g.nx; ++x) {
      double cap = opts.usable_track_fraction * std::min(g.cell_w, g.cell_h) / pitch;
      const Point center{g.x_of(x), g.y_of(y)};
      for (const auto& die : fp.dies) {
        if (!die.embedded && die.outline.contains(center)) {
          cap *= opts.die_capacity_factor;
          break;
        }
      }
      ws.capacity[g.idx(x, y, 0)] = std::max(cap, 0.5);
    }
  }

  // Moves: Manhattan layers alternate preferred direction (even layers
  // horizontal); diagonal style allows 8-way on all layers.
  const double dw = g.cell_w, dh = g.cell_h;
  const double ddiag = std::hypot(dw, dh);
  for (int l = 0; l < g.layers; ++l) {
    std::vector<Move> mv;
    if (g.manhattan) {
      const bool horiz = (l % 2) == 0;
      mv.push_back({+1, 0, 0, horiz ? dw : dw * opts.wrong_way_penalty});
      mv.push_back({-1, 0, 0, horiz ? dw : dw * opts.wrong_way_penalty});
      mv.push_back({0, +1, 0, horiz ? dh * opts.wrong_way_penalty : dh});
      mv.push_back({0, -1, 0, horiz ? dh * opts.wrong_way_penalty : dh});
    } else {
      mv.push_back({+1, 0, 0, dw});
      mv.push_back({-1, 0, 0, dw});
      mv.push_back({0, +1, 0, dh});
      mv.push_back({0, -1, 0, dh});
      mv.push_back({+1, +1, 0, ddiag});
      mv.push_back({+1, -1, 0, ddiag});
      mv.push_back({-1, +1, 0, ddiag});
      mv.push_back({-1, -1, 0, ddiag});
    }
    mv.push_back({0, 0, +1, opts.via_cost_um});
    mv.push_back({0, 0, -1, opts.via_cost_um});
    ws.layer_moves.push_back(std::move(mv));
  }
  ws.congestion.resize(g.size());
  for (std::size_t n = 0; n < g.size(); ++n) ws.congestion[n] = ws.congestion_cost(n);
  ws.dist.resize(g.size());
  ws.prev.resize(g.size());
  ws.stamp.assign(g.size(), 0u);

  // Route order: short nets first (they have the least flexibility).
  std::vector<int> order(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return geometry::manhattan_distance(nets[static_cast<std::size_t>(a)].a,
                                        nets[static_cast<std::size_t>(a)].b) <
           geometry::manhattan_distance(nets[static_cast<std::size_t>(b)].a,
                                        nets[static_cast<std::size_t>(b)].b);
  });

  std::vector<RoutedNet> routed(nets.size());
  std::vector<std::vector<std::size_t>> used_cells(nets.size());
  std::vector<char> any_routed(nets.size(), 0);

  VisGraph vis;
  if (opts.any_angle) {
    // Quarter-gap keepouts leave a half-gap corridor between dies placed at
    // the minimum spacing.
    vis = build_visibility(fp, tech.rules.die_to_die_spacing_um / 4.0);
  }

  int rr_layer = 0;  // round-robin layer assignment spreads any-angle nets
  for (int ni : order) {
    const auto& net = nets[static_cast<std::size_t>(ni)];
    auto& rn = routed[static_cast<std::size_t>(ni)];
    rn.net_id = net.id;
    rn.kind = net.kind;
    rn.bits = net.bits;
    rn.vertical = net.vertical;
    if (net.vertical) {
      rn.length_um = 0;
      rn.vias = 2;  // stacked-via pair (or bump/TSV) per signal
      out.stats.vertical_via_pairs += 2;
      continue;
    }
    if (opts.any_angle) {
      const int layer = rr_layer++ % g.layers;
      if (route_any_angle(ws, vis, net, layer, rn, used_cells[static_cast<std::size_t>(ni)])) {
        any_routed[static_cast<std::size_t>(ni)] = 1;
        continue;
      }
    }
    route_one(ws, net, rn, used_cells[static_cast<std::size_t>(ni)]);
  }

  // Rip-up & reroute: nets crossing overflowed cells are torn out (worst
  // offenders first) and rerouted against the updated congestion map.
  for (int pass = 0; pass < opts.reroute_passes; ++pass) {
    std::vector<std::pair<double, int>> offenders;
    for (std::size_t ni = 0; ni < nets.size(); ++ni) {
      if (routed[ni].vertical) continue;
      double over = 0;
      for (std::size_t c : used_cells[ni]) {
        over += std::max(0.0, ws.usage[c] - ws.capacity_of(c));
      }
      if (over > 0) offenders.push_back({over, static_cast<int>(ni)});
    }
    if (offenders.empty()) break;
    instrument::counter_add(instrument::Counter::RouterReroutes, offenders.size());
    std::sort(offenders.begin(), offenders.end(), std::greater<>());
    for (const auto& [over, ni] : offenders) {
      const double demand = static_cast<double>(nets[static_cast<std::size_t>(ni)].bits);
      for (std::size_t c : used_cells[static_cast<std::size_t>(ni)]) ws.add_usage(c, -demand);
      if (any_routed[static_cast<std::size_t>(ni)]) {
        rebalance_layer(ws, routed[static_cast<std::size_t>(ni)],
                        used_cells[static_cast<std::size_t>(ni)], demand);
      } else {
        route_one(ws, nets[static_cast<std::size_t>(ni)], routed[static_cast<std::size_t>(ni)],
                  used_cells[static_cast<std::size_t>(ni)]);
      }
    }
  }

  // Stats over laterally routed nets.
  auto& st = out.stats;
  int max_layer_used = 0;
  std::vector<double> wls;
  for (const auto& rn : routed) {
    if (rn.vertical) continue;
    wls.push_back(rn.length_um);
    const auto [lo, hi] = rn.path.layer_span();
    max_layer_used = std::max(max_layer_used, hi);
    (void)lo;
  }
  st.routed_nets = static_cast<int>(wls.size());
  if (!wls.empty()) {
    st.min_wl_um = *std::min_element(wls.begin(), wls.end());
    st.max_wl_um = *std::max_element(wls.begin(), wls.end());
    for (double w : wls) st.total_wl_um += w;
    st.avg_wl_um = st.total_wl_um / static_cast<double>(wls.size());
  }
  for (const auto& rn : routed) st.total_vias += rn.vias;
  st.signal_layers_used = wls.empty() ? 0 : max_layer_used + 1;
  for (std::size_t i = 0; i < ws.usage.size(); ++i) {
    if (ws.usage[i] > ws.capacity_of(i)) ++st.overflowed_cells;
  }
  out.nets = std::move(routed);  // already in input order
  return out;
}

}  // namespace gia::interposer
