#include "chiplet/placer.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "core/instrument.hpp"

namespace gia::chiplet {

namespace instrument = core::instrument;

using geometry::Point;
using geometry::Rect;

PlacementResult place_clusters(const netlist::Netlist& nl, const std::vector<int>& instance_ids,
                               const std::vector<int>& net_ids, const geometry::Rect& die,
                               const std::vector<std::pair<int, geometry::Point>>& fixed_terminals,
                               const PlacerOptions& opts) {
  GIA_SPAN("chiplet/place");
  if (instance_ids.empty()) throw std::invalid_argument("nothing to place");
  const int n = static_cast<int>(instance_ids.size());

  // Placement region: pack the cell area at `packing_util`, centered.
  double cell_area = 0;
  for (int id : instance_ids) cell_area += nl.instance(id).cell_area_um2;
  double side = std::sqrt(cell_area / opts.packing_util);
  side = std::min(side, std::min(die.width(), die.height()));
  const Rect region = Rect::from_center(die.center(), side, side);

  // Site grid roughly one cluster per site.
  const int grid = std::max(2, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  const double dx = region.width() / grid, dy = region.height() / grid;

  std::unordered_map<int, int> local_of;  // instance id -> local index
  local_of.reserve(static_cast<std::size_t>(n) * 2);
  for (int i = 0; i < n; ++i) local_of[instance_ids[static_cast<std::size_t>(i)]] = i;
  std::unordered_map<int, Point> fixed;
  for (const auto& [id, p] : fixed_terminals) fixed[id] = p;

  // Initial placement: row-major over the site grid.
  std::vector<Point> pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = {region.lx + (i % grid + 0.5) * dx,
                                        region.ly + (i / grid + 0.5) * dy};
  }

  // Net -> local terminals (movable) and fixed points.
  struct NetInfo {
    int id;
    int bits;
    std::vector<int> movable;
    std::vector<Point> pinned;
  };
  std::vector<NetInfo> nets;
  std::vector<std::vector<int>> nets_of(static_cast<std::size_t>(n));
  nets.reserve(net_ids.size());
  for (int nid : net_ids) {
    const auto& net = nl.net(nid);
    NetInfo info{nid, net.bits, {}, {}};
    for (int t : net.terminals) {
      auto it = local_of.find(t);
      if (it != local_of.end()) {
        info.movable.push_back(it->second);
      } else if (auto fit = fixed.find(t); fit != fixed.end()) {
        info.pinned.push_back(fit->second);
      } else {
        info.pinned.push_back(die.center());
      }
    }
    if (info.movable.empty()) continue;
    const int idx = static_cast<int>(nets.size());
    for (int m : info.movable) nets_of[static_cast<std::size_t>(m)].push_back(idx);
    nets.push_back(std::move(info));
  }

  // Bounding box over the pinned, then the movable terminals, seeded with
  // the first of them. Min/max is exact, so the visiting order cannot change
  // the box; the seed and order match a box over one concatenated list.
  auto net_hpwl = [&](const NetInfo& info) {
    const Point& first =
        info.pinned.empty() ? pos[static_cast<std::size_t>(info.movable.front())] : info.pinned.front();
    double lx = first.x, ux = first.x, ly = first.y, uy = first.y;
    const auto extend = [&](const Point& p) {
      lx = std::min(lx, p.x);
      ux = std::max(ux, p.x);
      ly = std::min(ly, p.y);
      uy = std::max(uy, p.y);
    };
    for (const Point& p : info.pinned) extend(p);
    for (int m : info.movable) extend(pos[static_cast<std::size_t>(m)]);
    return ((ux - lx) + (uy - ly)) * info.bits;
  };
  auto cost_of = [&](const std::vector<int>& affected) {
    double c = 0;
    for (int idx : affected) c += net_hpwl(nets[static_cast<std::size_t>(idx)]);
    return c;
  };

  double total = 0;
  for (const auto& info : nets) total += net_hpwl(info);

  // Annealing: swap two clusters or nudge one to a random site.
  std::mt19937 rng(opts.seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_real_distribution<double> rx(region.lx, region.ux);
  std::uniform_real_distribution<double> ry(region.ly, region.uy);

  double temp = std::max(total * opts.t_start_frac / std::max(1, n), 1.0);
  const int total_moves = opts.moves_per_cluster * n;
  const int moves_per_stage = std::max(64, total_moves / 40);

  std::vector<int> affected;  // scratch reused by every move
  int accepts = 0;
  for (int mv = 0; mv < total_moves; ++mv) {
    const int a = pick(rng);
    const bool do_swap = unif(rng) < 0.5 && n > 1;
    int b = -1;
    Point old_a = pos[static_cast<std::size_t>(a)];
    Point old_b;
    affected = nets_of[static_cast<std::size_t>(a)];
    if (do_swap) {
      do { b = pick(rng); } while (b == a);
      old_b = pos[static_cast<std::size_t>(b)];
      affected.insert(affected.end(), nets_of[static_cast<std::size_t>(b)].begin(),
                      nets_of[static_cast<std::size_t>(b)].end());
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
    }
    const double before = cost_of(affected);
    if (do_swap) {
      std::swap(pos[static_cast<std::size_t>(a)], pos[static_cast<std::size_t>(b)]);
    } else {
      pos[static_cast<std::size_t>(a)] = {rx(rng), ry(rng)};
    }
    const double after = cost_of(affected);
    const double delta = after - before;
    if (delta <= 0 || unif(rng) < std::exp(-delta / temp)) {
      total += delta;
      ++accepts;
    } else {
      pos[static_cast<std::size_t>(a)] = old_a;
      if (do_swap) pos[static_cast<std::size_t>(b)] = old_b;
    }
    if ((mv + 1) % moves_per_stage == 0) temp *= opts.cooling;
  }

  instrument::counter_add(instrument::Counter::PlacerMoves,
                          static_cast<std::uint64_t>(std::max(0, total_moves)));
  instrument::counter_add(instrument::Counter::PlacerAccepts, static_cast<std::uint64_t>(accepts));

  PlacementResult out;
  out.region = region;
  out.total_hpwl_um = 0;
  for (const auto& info : nets) {
    const double h = net_hpwl(info);  // reads `pos`; keep before the move below
    out.nets.push_back({info.id, info.bits, h / info.bits});
    out.total_hpwl_um += h;
  }
  out.positions = std::move(pos);
  return out;
}

}  // namespace gia::chiplet
