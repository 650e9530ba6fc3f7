#include "circuit/transient.hpp"

#include <cmath>
#include <stdexcept>

#include "circuit/dc.hpp"
#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"
#include "core/instrument.hpp"

namespace gia::circuit {

namespace {

/// Trapezoidal system assembly. Fills `mutual_val` with M = k * sqrt(L1 L2)
/// as a side product.
void assemble_transient(const Circuit& ckt, double dt, RealMatrix& A,
                        std::vector<double>& mutual_val) {
  const auto& caps = ckt.capacitors();
  const auto& ls = ckt.inductors();
  stamp_static(ckt, A);
  constexpr double gmin = 1e-12;  // keeps DC-floating nodes solvable
  for (int n = 0; n < ckt.node_count() - 1; ++n) A.add(n, n, gmin);

  for (const auto& c : caps) {
    stamp_conductance(A, c.a, c.b, 2.0 * c.farads / dt);
  }
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    const auto& l = ls[static_cast<std::size_t>(j)];
    const int col = ckt.inductor_current_index(j);
    stamp_branch_incidence(A, l.a, l.b, col, 1.0);
    A.add(col, col, -2.0 * l.henries / dt);
  }
  mutual_val.resize(ckt.couplings().size());
  for (std::size_t kk = 0; kk < ckt.couplings().size(); ++kk) {
    const auto& k = ckt.couplings()[kk];
    const double mval = k.k * std::sqrt(ls[static_cast<std::size_t>(k.l1)].henries *
                                        ls[static_cast<std::size_t>(k.l2)].henries);
    mutual_val[kk] = mval;
    A.add(ckt.inductor_current_index(k.l1), ckt.inductor_current_index(k.l2), -2.0 * mval / dt);
    A.add(ckt.inductor_current_index(k.l2), ckt.inductor_current_index(k.l1), -2.0 * mval / dt);
  }
}

}  // namespace

TransientResult run_transient(const Circuit& ckt, const TransientSpec& spec) {
  GIA_SPAN("circuit/transient");
  if (spec.dt <= 0 || spec.t_stop <= 0) throw std::invalid_argument("bad transient spec");
  const int m = ckt.unknown_count();
  const auto& caps = ckt.capacitors();
  const auto& ls = ckt.inductors();
  const double dt = spec.dt;

  // --- Assemble the (constant) trapezoidal system matrix and factor it once.
  std::vector<double> mutual_val;
  RealMatrix A(m);
  assemble_transient(ckt, dt, A, mutual_val);
  const LuFactor<double> lu(std::move(A));

  // --- Initial state.
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  if (spec.init_from_dc) {
    x = solve_dc(ckt, 0.0).x;
  }
  auto v_of = [&](const std::vector<double>& vec, NodeId n) {
    return n == kGround ? 0.0 : vec[static_cast<std::size_t>(node_row(n))];
  };

  // Capacitor branch currents (zero at the DC operating point).
  std::vector<double> icap(caps.size(), 0.0);

  const auto n_steps = static_cast<std::size_t>(std::ceil(spec.t_stop / dt));
  core::instrument::counter_add(core::instrument::Counter::TransientSteps, n_steps);
  TransientResult out;
  out.dt = dt;
  std::vector<std::vector<double>> probe_data(spec.probes.size());
  std::vector<std::vector<double>> vsrc_data(spec.record_vsource_currents ? ckt.vsources().size()
                                                                          : 0);
  auto record = [&](const std::vector<double>& state) {
    for (std::size_t p = 0; p < spec.probes.size(); ++p) {
      probe_data[p].push_back(v_of(state, spec.probes[p]));
    }
    for (std::size_t j = 0; j < vsrc_data.size(); ++j) {
      vsrc_data[j].push_back(
          state[static_cast<std::size_t>(ckt.vsource_current_index(static_cast<int>(j)))]);
    }
  };
  record(x);

  std::vector<double> rhs(static_cast<std::size_t>(m));
  std::vector<double> x_new(static_cast<std::size_t>(m));
  for (std::size_t step = 1; step <= n_steps; ++step) {
    const double t = static_cast<double>(step) * dt;
    std::fill(rhs.begin(), rhs.end(), 0.0);

    // Sources at the new time point.
    const auto& vs = ckt.vsources();
    for (int j = 0; j < static_cast<int>(vs.size()); ++j) {
      rhs[static_cast<std::size_t>(ckt.vsource_current_index(j))] =
          vs[static_cast<std::size_t>(j)].v.at(t);
    }
    for (const auto& is : ckt.isources()) {
      const double val = is.i.at(t);
      const int rf = node_row(is.from), rt = node_row(is.to);
      if (rf >= 0) rhs[static_cast<std::size_t>(rf)] -= val;
      if (rt >= 0) rhs[static_cast<std::size_t>(rt)] += val;
    }

    // Capacitor companions: Ieq = geq*v_prev + i_prev, injected b -> a.
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const auto& c = caps[ci];
      const double geq = 2.0 * c.farads / dt;
      const double v_prev = v_of(x, c.a) - v_of(x, c.b);
      const double ieq = geq * v_prev + icap[ci];
      const int ra = node_row(c.a), rb = node_row(c.b);
      if (ra >= 0) rhs[static_cast<std::size_t>(ra)] += ieq;
      if (rb >= 0) rhs[static_cast<std::size_t>(rb)] -= ieq;
    }

    // Inductor branch equations' history terms.
    for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
      const auto& l = ls[static_cast<std::size_t>(j)];
      const int row = ckt.inductor_current_index(j);
      const double v_prev = v_of(x, l.a) - v_of(x, l.b);
      const double i_prev = x[static_cast<std::size_t>(row)];
      rhs[static_cast<std::size_t>(row)] = -v_prev - (2.0 * l.henries / dt) * i_prev;
    }
    for (std::size_t kk = 0; kk < ckt.couplings().size(); ++kk) {
      const auto& k = ckt.couplings()[kk];
      const double i1_prev = x[static_cast<std::size_t>(ckt.inductor_current_index(k.l1))];
      const double i2_prev = x[static_cast<std::size_t>(ckt.inductor_current_index(k.l2))];
      rhs[static_cast<std::size_t>(ckt.inductor_current_index(k.l1))] -=
          (2.0 * mutual_val[kk] / dt) * i2_prev;
      rhs[static_cast<std::size_t>(ckt.inductor_current_index(k.l2))] -=
          (2.0 * mutual_val[kk] / dt) * i1_prev;
    }

    lu.solve_into(rhs, x_new);

    // Update capacitor currents from the trapezoidal companion.
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const auto& c = caps[ci];
      const double geq = 2.0 * c.farads / dt;
      const double v_prev = v_of(x, c.a) - v_of(x, c.b);
      const double v_new = v_of(x_new, c.a) - v_of(x_new, c.b);
      icap[ci] = geq * (v_new - v_prev) - icap[ci];
    }
    x.swap(x_new);
    record(x);
  }

  for (std::size_t p = 0; p < probe_data.size(); ++p) {
    out.node_v.emplace_back(dt, std::move(probe_data[p]));
  }
  for (std::size_t j = 0; j < vsrc_data.size(); ++j) {
    out.vsrc_i.emplace_back(dt, std::move(vsrc_data[j]));
  }
  return out;
}

}  // namespace gia::circuit
