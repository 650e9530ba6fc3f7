#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <map>
#include <stdexcept>
#include <vector>

#include "circuit/ac.hpp"
#include "circuit/circuit.hpp"
#include "circuit/dc.hpp"
#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"
#include "circuit/sparse.hpp"
#include "core/instrument.hpp"
#include "interposer/design.hpp"
#include "pdn/impedance.hpp"
#include "pdn/pdn_model.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

namespace cc = gia::circuit;
namespace core = gia::core;
namespace ip = gia::interposer;
namespace pd = gia::pdn;
namespace th = gia::tech;
namespace tml = gia::thermal;

namespace {

/// A divider + vsource + inductor circuit exercising every static stamp
/// family (conductances, vsource/inductor branch rows, VCVS).
cc::Circuit make_mixed_circuit() {
  cc::Circuit ckt;
  const auto a = ckt.add_node("a");
  const auto b = ckt.add_node("b");
  const auto c = ckt.add_node("c");
  ckt.add_vsource(a, cc::kGround, cc::Stimulus::dc(1.0), "vin");
  ckt.add_resistor(a, b, 10.0, "r1");
  ckt.add_resistor(b, cc::kGround, 40.0, "r2");
  ckt.add_inductor(b, c, 1e-9, "l1");
  ckt.add_resistor(c, cc::kGround, 25.0, "r3");
  ckt.add_vcvs(c, cc::kGround, b, cc::kGround, 2.0, "e1");
  return ckt;
}

/// SPD 2D resistor-grid Laplacian (unit links + `leak` to ground on every
/// node), assembled as CSR. The classic Krylov/preconditioner testbed.
cc::RealSparseMatrix make_grid_laplacian(int n, double leak) {
  cc::RealSparseMatrix A(n * n);
  auto id = [n](int x, int y) { return y * n + x; };
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      const int i = id(x, y);
      A.add(i, i, leak);
      if (x + 1 < n) {
        const int j = id(x + 1, y);
        A.add(i, i, 1.0); A.add(j, j, 1.0); A.add(i, j, -1.0); A.add(j, i, -1.0);
      }
      if (y + 1 < n) {
        const int j = id(x, y + 1);
        A.add(i, i, 1.0); A.add(j, j, 1.0); A.add(i, j, -1.0); A.add(j, i, -1.0);
      }
    }
  }
  A.finalize();
  return A;
}

const ip::InterposerDesign& design_of(th::TechnologyKind k) {
  static std::map<th::TechnologyKind, ip::InterposerDesign> cache;
  auto it = cache.find(k);
  if (it == cache.end()) it = cache.emplace(k, ip::build_interposer_design(k)).first;
  return it->second;
}

}  // namespace

// --- CSR assembly ------------------------------------------------------------

TEST(SparseMatrix, MatchesDenseStamp) {
  const auto ckt = make_mixed_circuit();
  const int m = ckt.unknown_count();

  cc::RealMatrix dense(m);
  cc::stamp_static_real(ckt, dense);

  cc::RealSparseMatrix sp(m);
  cc::stamp_static<double>(ckt, sp);
  sp.finalize();
  const auto v = sp.view();

  for (int r = 0; r < m; ++r) {
    for (int c = 0; c < m; ++c) {
      const int s = sp.slot(r, c);
      const double sparse_v = s >= 0 ? v.vals[s] : 0.0;
      EXPECT_DOUBLE_EQ(sparse_v, dense.at(r, c)) << "entry (" << r << "," << c << ")";
    }
  }
  // finalize(ensure_diagonal) must give every row a structural diagonal --
  // branch rows stamp a purely off-diagonal pattern, and ILU(0) pivots on
  // the diagonal slot.
  for (int r = 0; r < m; ++r) EXPECT_GE(sp.slot(r, r), 0);
}

TEST(SparseMatrix, DuplicateTripletsSumDeterministically) {
  cc::RealSparseMatrix A(2);
  A.add(0, 0, 1.0);
  A.add(0, 1, -2.0);
  A.add(0, 0, 3.0);  // duplicate of (0,0)
  A.add(1, 1, 5.0);
  A.finalize();
  const auto v = A.view();
  EXPECT_DOUBLE_EQ(v.vals[A.slot(0, 0)], 4.0);
  EXPECT_DOUBLE_EQ(v.vals[A.slot(0, 1)], -2.0);
  EXPECT_DOUBLE_EQ(v.vals[A.slot(1, 1)], 5.0);
  EXPECT_EQ(A.slot(1, 0), -1);  // never stamped, not in the pattern
}

TEST(SparseMatrix, RefreshReplaysAssemblyPrefix) {
  const auto ckt = make_mixed_circuit();
  const int m = ckt.unknown_count();
  cc::RealSparseMatrix sp(m);
  cc::stamp_static<double>(ckt, sp);
  sp.finalize();
  const std::vector<double> before(sp.view().vals, sp.view().vals + sp.view().row_ptr[m]);

  // Zero + replay the identical add sequence: values must round-trip.
  sp.begin_refresh();
  cc::stamp_static<double>(ckt, sp);
  const auto v = sp.view();
  for (int s = 0; s < v.row_ptr[m]; ++s) EXPECT_DOUBLE_EQ(v.vals[s], before[static_cast<std::size_t>(s)]);
}

// --- Krylov solvers ----------------------------------------------------------

TEST(Krylov, CgSolvesSpdGrid) {
  const int n = 24;  // 576 unknowns
  const auto A = make_grid_laplacian(n, 1e-3);
  std::vector<double> b(static_cast<std::size_t>(n) * n, 0.0);
  b[0] = 1.0;
  b[static_cast<std::size_t>(n) * n - 1] = -0.5;

  std::vector<double> x;
  const auto stats = cc::cg(A.view(), b, x, cc::JacobiPreconditioner<double>(A.view()));
  EXPECT_TRUE(stats.converged);

  // Residual check: ||b - A x|| tiny relative to ||b||.
  std::vector<double> ax(b.size());
  A.view().multiply(x.data(), ax.data());
  double r2 = 0, b2 = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
    b2 += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(r2), 1e-10 * std::sqrt(b2));
}

TEST(Krylov, Ilu0ConvergesFasterThanJacobi) {
  const int n = 24;
  const auto A = make_grid_laplacian(n, 1e-3);
  std::vector<double> b(static_cast<std::size_t>(n) * n, 1.0);

  std::vector<double> xj, xi;
  const auto sj = cc::cg(A.view(), b, xj, cc::JacobiPreconditioner<double>(A.view()));
  const auto si = cc::cg(A.view(), b, xi, cc::Ilu0Preconditioner<double>(A.view()));
  EXPECT_TRUE(sj.converged);
  EXPECT_TRUE(si.converged);
  EXPECT_LT(si.iterations, sj.iterations);
}

TEST(Krylov, BicgstabSolvesIndefiniteMna) {
  // MNA with branch rows is a saddle-point system -- indefinite, so CG's
  // contract is void but BiCGSTAB + ILU(0) must still match dense LU.
  const auto ckt = make_mixed_circuit();
  const int m = ckt.unknown_count();

  // Full DC system: static stamps + inductor shorts + gmin, stamped
  // identically into both matrix kinds.
  cc::RealMatrix dense(m);
  cc::stamp_static_real(ckt, dense);
  cc::stamp_branch_incidence(dense, ckt.inductors()[0].a, ckt.inductors()[0].b,
                             ckt.inductor_current_index(0), 1.0);
  for (int i = 0; i < ckt.node_count() - 1; ++i) dense.add(i, i, 1e-12);

  cc::RealSparseMatrix sp(m);
  cc::stamp_static<double>(ckt, sp);
  cc::stamp_branch_incidence(sp, ckt.inductors()[0].a, ckt.inductors()[0].b,
                             ckt.inductor_current_index(0), 1.0);
  for (int i = 0; i < ckt.node_count() - 1; ++i) sp.add(i, i, 1e-12);
  sp.finalize();

  std::vector<double> b(static_cast<std::size_t>(m), 0.0);
  b[static_cast<std::size_t>(ckt.vsource_current_index(0))] = 1.0;

  const auto x_dense = cc::LuFactor<double>(dense).solve(b);
  std::vector<double> x_sp;
  const auto stats = cc::bicgstab(sp.view(), b, x_sp, cc::Ilu0Preconditioner<double>(sp.view()));
  EXPECT_TRUE(stats.converged);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(x_sp[static_cast<std::size_t>(i)], x_dense[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Krylov, BicgstabSolvesComplexSystem) {
  using C = std::complex<double>;
  // Complex AC-style system: static stamps plus a jwC admittance.
  const auto ckt = make_mixed_circuit();
  const int m = ckt.unknown_count();
  const C jwc(0.0, 2e-3);

  const C jwl(0.0, -2e-2);

  cc::ComplexMatrix dense(m);
  cc::stamp_static_complex(ckt, dense);
  cc::stamp_branch_incidence(dense, ckt.inductors()[0].a, ckt.inductors()[0].b,
                             ckt.inductor_current_index(0), C{1.0});
  dense.add(ckt.inductor_current_index(0), ckt.inductor_current_index(0), jwl);
  dense.add(0, 0, jwc);

  cc::ComplexSparseMatrix sp(m);
  cc::stamp_static<C>(ckt, sp);
  cc::stamp_branch_incidence(sp, ckt.inductors()[0].a, ckt.inductors()[0].b,
                             ckt.inductor_current_index(0), C{1.0});
  sp.add(ckt.inductor_current_index(0), ckt.inductor_current_index(0), jwl);
  sp.add(0, 0, jwc);
  sp.finalize();

  std::vector<C> b(static_cast<std::size_t>(m), C{});
  b[0] = C{1.0, 0.0};

  const auto x_dense = cc::LuFactor<C>(dense).solve(b);
  std::vector<C> x_sp;
  const auto stats = cc::bicgstab(sp.view(), b, x_sp, cc::Ilu0Preconditioner<C>(sp.view()));
  EXPECT_TRUE(stats.converged);
  for (int i = 0; i < m; ++i) {
    EXPECT_NEAR(std::abs(x_sp[static_cast<std::size_t>(i)] - x_dense[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
  }
}

TEST(Krylov, IterationCounterAdvances) {
  const bool was = core::instrument::enabled();
  core::instrument::set_enabled(true);
  const auto before = core::instrument::counter_value(core::instrument::Counter::KrylovIterations);
  const auto A = make_grid_laplacian(8, 1e-3);
  std::vector<double> b(64, 1.0), x;
  const auto stats = cc::cg(A.view(), b, x, cc::JacobiPreconditioner<double>(A.view()));
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(core::instrument::counter_value(core::instrument::Counter::KrylovIterations),
            before + static_cast<std::uint64_t>(stats.iterations));
  core::instrument::set_enabled(was);
}

// --- Backend routing ---------------------------------------------------------

TEST(Backend, AutoThresholds) {
  EXPECT_FALSE(cc::use_sparse_mna(cc::kSparseMinUnknowns - 1));
  EXPECT_TRUE(cc::use_sparse_mna(cc::kSparseMinUnknowns));
  EXPECT_FALSE(tml::use_multigrid(48, 48));
  EXPECT_TRUE(tml::use_multigrid(tml::kMultigridMinExtent, tml::kMultigridMinExtent));
  EXPECT_FALSE(tml::use_multigrid(tml::kMultigridMinExtent, tml::kMultigridMinExtent - 2));
  // Odd extents can never coarsen, however large.
  EXPECT_FALSE(tml::use_multigrid(97, 96));
}

TEST(Backend, DcSparseMatchesDense) {
  const auto ckt = make_mixed_circuit();
  const auto dense = cc::solve_dc_dense(ckt);
  const auto sparse = cc::solve_dc_sparse(ckt);

  ASSERT_EQ(dense.x.size(), sparse.x.size());
  for (std::size_t i = 0; i < dense.x.size(); ++i) {
    EXPECT_NEAR(sparse.x[i], dense.x[i], 1e-9);
  }
  // A small system takes the dense path, bit for bit.
  EXPECT_EQ(cc::solve_dc(ckt).x, dense.x);
}

TEST(Backend, AcSparseMatchesDense) {
  cc::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto out = ckt.add_node("out");
  ckt.add_vsource(in, cc::kGround, cc::Stimulus::dc(0), "vin", 1.0);
  ckt.add_resistor(in, out, 50.0, "r");
  ckt.add_capacitor(out, cc::kGround, 1e-12, "c");
  const auto l1 = ckt.add_inductor(out, cc::kGround, 5e-9, "l1");
  const auto mid = ckt.add_node("mid");
  const auto l2 = ckt.add_inductor(out, mid, 3e-9, "l2");
  ckt.add_resistor(mid, cc::kGround, 75.0, "rt");
  ckt.add_coupling(l1, l2, 0.4);

  const auto freqs = cc::log_freq_grid(1e6, 1e10, 12);
  const auto dense = cc::run_ac_dense(ckt, freqs, {out});
  const auto sparse = cc::run_ac_sparse(ckt, freqs, {out});

  for (std::size_t f = 0; f < freqs.size(); ++f) {
    EXPECT_NEAR(std::abs(sparse.node_v[0][f] - dense.node_v[0][f]), 0.0, 1e-9)
        << "f = " << freqs[f];
  }
}

TEST(Backend, ImpedanceEquivalentAcrossTechnologies) {
  // Dense and sparse AC paths must agree to 1e-9 on the headline PDN
  // impedance circuit of all six technologies; impedance_profile itself
  // (a small circuit, so the dense path) must match the dense sweep exactly.
  const pd::ImpedanceOptions opts;
  const auto freqs = cc::log_freq_grid(opts.f_start_hz, opts.f_stop_hz, opts.points_per_decade);
  for (const auto kind : th::table_order()) {
    const auto model = pd::build_pdn_model(design_of(kind));
    const auto ic = pd::impedance_circuit(model);
    const auto dense = cc::run_ac_dense(ic.ckt, freqs, {ic.bump});
    const auto sparse = cc::run_ac_sparse(ic.ckt, freqs, {ic.bump});
    const auto profile = pd::impedance_profile(model, opts);

    ASSERT_EQ(profile.z_ohm.size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const double z_dense = std::abs(dense.node_v[0][i]);
      const double z_sparse = std::abs(sparse.node_v[0][i]);
      EXPECT_NEAR(z_sparse, z_dense, 1e-9 * std::max(1.0, z_dense))
          << th::make_technology(kind).name << " @ " << freqs[i] << " Hz";
      EXPECT_EQ(profile.z_ohm[i], z_dense) << th::make_technology(kind).name << " @ " << freqs[i];
    }
  }
}

TEST(Backend, SingularSystemThrowsInBothBackends) {
  // A degenerate voltage source (both terminals on one node) produces an
  // all-zero branch row: structurally singular however it is factored.
  cc::Circuit ckt;
  const auto a = ckt.add_node("a");
  ckt.add_resistor(a, cc::kGround, 10.0, "r");
  ckt.add_vsource(a, a, cc::Stimulus::dc(1.0), "vloop");

  EXPECT_THROW(cc::solve_dc_dense(ckt), std::runtime_error);
  EXPECT_THROW(cc::solve_dc_sparse(ckt), std::runtime_error);
}

// --- Thermal multigrid -------------------------------------------------------

TEST(Multigrid, MatchesSorField) {
  const auto mesh = tml::build_thermal_mesh(design_of(th::TechnologyKind::Glass3D),
                                            {.nx = 64, .ny = 64});
  tml::SolverOptions opts;
  const auto sor = tml::solve_steady_state_sor(mesh, opts);
  const auto mg = tml::solve_steady_state_multigrid(mesh, opts);

  ASSERT_TRUE(sor.converged);
  ASSERT_TRUE(mg.converged);
  // Same discretization, same fixed point; each method stops when its
  // per-iteration update drops below tol_k, which bounds the remaining
  // error at a few mK for SOR (rho close to 1) and tighter for MG.
  EXPECT_NEAR(mg.max_c, sor.max_c, 2e-2);
  ASSERT_EQ(mg.t_c.size(), sor.t_c.size());
  for (std::size_t z = 0; z < sor.t_c.size(); ++z) {
    for (int y = 0; y < mesh.ny; ++y) {
      for (int x = 0; x < mesh.nx; ++x) {
        EXPECT_NEAR(mg.t_c[z].at(x, y), sor.t_c[z].at(x, y), 2e-2)
            << "layer " << z << " cell (" << x << "," << y << ")";
      }
    }
  }
  // The whole point: V-cycle count is grid-independent, sweep count is not.
  EXPECT_LT(mg.iterations * 10, sor.iterations);
}

TEST(Multigrid, FallsBackToSorWhenUncoarsenable) {
  // 47x47 cannot 2x-coarsen; the MG entry point must hand off to SOR and
  // return the byte-identical field.
  const auto mesh = tml::build_thermal_mesh(design_of(th::TechnologyKind::Glass25D),
                                            {.nx = 47, .ny = 47});
  tml::SolverOptions opts;
  const auto sor = tml::solve_steady_state_sor(mesh, opts);
  const auto mg = tml::solve_steady_state_multigrid(mesh, opts);
  EXPECT_EQ(mg.iterations, sor.iterations);
  EXPECT_EQ(mg.max_c, sor.max_c);
  for (std::size_t z = 0; z < sor.t_c.size(); ++z) {
    EXPECT_EQ(mg.t_c[z].data(), sor.t_c[z].data());
  }
}

TEST(Multigrid, DispatcherPicksBySize) {
  // solve_steady_state is SOR below kMultigridMinExtent and multigrid at
  // it, bit for bit.
  const auto& design = design_of(th::TechnologyKind::Silicon25D);
  const auto small = tml::build_thermal_mesh(design, {.nx = 32, .ny = 32});
  const auto large = tml::build_thermal_mesh(
      design, {.nx = tml::kMultigridMinExtent, .ny = tml::kMultigridMinExtent});
  const auto small_field = tml::solve_steady_state(small);
  const auto large_field = tml::solve_steady_state(large);
  const auto sor = tml::solve_steady_state_sor(small);
  const auto mg = tml::solve_steady_state_multigrid(large);
  EXPECT_EQ(small_field.iterations, sor.iterations);
  EXPECT_EQ(large_field.iterations, mg.iterations);
  for (std::size_t z = 0; z < sor.t_c.size(); ++z) {
    EXPECT_EQ(small_field.t_c[z].data(), sor.t_c[z].data());
    EXPECT_EQ(large_field.t_c[z].data(), mg.t_c[z].data());
  }
}
