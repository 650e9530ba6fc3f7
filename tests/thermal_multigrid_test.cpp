#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/canon.hpp"
#include "core/instrument.hpp"
#include "interposer/design.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

namespace core = gia::core;
namespace ip = gia::interposer;
namespace th = gia::tech;
namespace tml = gia::thermal;

namespace {

const ip::InterposerDesign& design_of(th::TechnologyKind k) {
  static std::map<th::TechnologyKind, ip::InterposerDesign> cache;
  auto it = cache.find(k);
  if (it == cache.end()) it = cache.emplace(k, ip::build_interposer_design(k)).first;
  return it->second;
}

/// FNV-1a over the raw bytes of one layer's temperatures.
std::uint64_t field_digest(const std::vector<double>& t) {
  std::string bytes(t.size() * sizeof(double), '\0');
  std::memcpy(bytes.data(), t.data(), bytes.size());
  return core::canon::fnv1a64(bytes);
}

}  // namespace

// --- Thermal backend routing -------------------------------------------------

TEST(Backend, AutoThresholds) {
  EXPECT_FALSE(tml::use_multigrid(48, 48));
  EXPECT_TRUE(tml::use_multigrid(tml::kMultigridMinExtent, tml::kMultigridMinExtent));
  EXPECT_FALSE(tml::use_multigrid(tml::kMultigridMinExtent, tml::kMultigridMinExtent - 2));
  // Odd extents can never coarsen, however large.
  EXPECT_FALSE(tml::use_multigrid(97, 96));
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

TEST(Multigrid, CgCoarsestLevelIsStable) {
  // 98x98 stops coarsening at 49x49 and 100x100 at 25x25: both coarsest
  // levels exceed the 1500 cells a dense LU takes, so the exact coarse
  // solve is Jacobi-CG. Pins every layer's field bit for bit, plus
  // convergence and agreement with SOR.
  struct Case {
    th::TechnologyKind kind;
    int n;
    std::vector<std::uint64_t> digests;
  };
  const std::vector<Case> cases = {
      {th::TechnologyKind::Glass25D,
       98,
       {0xfb7635cd5fcb5baeull, 0xf2788607982ecf91ull, 0x27fd14b57d70d846ull,
        0x84fe219a6f7515cdull, 0x11d7b0ae24f86703ull, 0x6bc5b4677b0838c2ull}},
      {th::TechnologyKind::Glass25D,
       100,
       {0x6b7e3ecbb69149bcull, 0xdca73f2b37e39192ull, 0x75e04f43b649f796ull,
        0x9b1d6fc17ba1b249ull, 0x56735788a4981fe8ull, 0x1ba42607cdf76879ull}},
      {th::TechnologyKind::Silicon25D,
       98,
       {0x60e893b01b02936eull, 0xdf38e2f8b5cebc72ull, 0x587e93299cca8425ull,
        0x00ccd1ff9b27c559ull, 0x42037e93cac144b5ull, 0x87a8fde8a8ea9100ull}},
      {th::TechnologyKind::Silicon25D,
       100,
       {0x53e2dcf74772fea6ull, 0x186b086f834f3bdfull, 0x4900791362e60d7full,
        0x83f85438b6b8d37full, 0x6dd0a21ebee82ab3ull, 0x483d691700ed6523ull}},
  };
  const bool was = core::instrument::enabled();
  core::instrument::set_enabled(true);
  for (const auto& c : cases) {
    const auto mesh = tml::build_thermal_mesh(design_of(c.kind), {.nx = c.n, .ny = c.n});
    tml::SolverOptions opts;
    const auto before =
        core::instrument::counter_value(core::instrument::Counter::KrylovIterations);
    const auto mg = tml::solve_steady_state_multigrid(mesh, opts);
    const auto after =
        core::instrument::counter_value(core::instrument::Counter::KrylovIterations);
    const auto sor = tml::solve_steady_state_sor(mesh, opts);
    const std::string tag = th::make_technology(c.kind).name + " " + std::to_string(c.n);
    EXPECT_TRUE(mg.converged) << tag;
    EXPECT_GT(after, before) << tag;
    ASSERT_EQ(mg.t_c.size(), sor.t_c.size());
    for (std::size_t z = 0; z < mg.t_c.size(); ++z) {
      EXPECT_EQ(field_digest(mg.t_c[z].data()), c.digests.at(z)) << tag << " layer " << z;
      for (int y = 0; y < mesh.ny; ++y) {
        for (int x = 0; x < mesh.nx; ++x) {
          EXPECT_NEAR(mg.t_c[z].at(x, y), sor.t_c[z].at(x, y), 2e-2)
              << tag << " layer " << z << " cell (" << x << "," << y << ")";
        }
      }
    }
  }
  core::instrument::set_enabled(was);
}
