#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <stdexcept>

#include "circuit/ac.hpp"
#include "circuit/circuit.hpp"
#include "circuit/dc.hpp"
#include "circuit/dense_lu.hpp"
#include "circuit/stimulus.hpp"
#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"

namespace ck = gia::circuit;

// --- Dense LU --------------------------------------------------------------

TEST(DenseLu, SolvesKnownSystem) {
  ck::RealMatrix a(3);
  // [2 1 0; 1 3 1; 0 1 2] x = [3; 10; 7] -> x = [0.25, 2.5, 2.25]
  a.at(0, 0) = 2; a.at(0, 1) = 1;
  a.at(1, 0) = 1; a.at(1, 1) = 3; a.at(1, 2) = 1;
  a.at(2, 1) = 1; a.at(2, 2) = 2;
  ck::LuFactor<double> lu(std::move(a));
  auto x = lu.solve({3, 10, 7});
  EXPECT_NEAR(x[0], 0.25, 1e-12);
  EXPECT_NEAR(x[1], 2.5, 1e-12);
  EXPECT_NEAR(x[2], 2.25, 1e-12);
}

TEST(DenseLu, PivotsZeroDiagonal) {
  ck::RealMatrix a(2);
  a.at(0, 1) = 1;  // zero diagonal forces a row swap
  a.at(1, 0) = 1;
  ck::LuFactor<double> lu(std::move(a));
  auto x = lu.solve({2, 3});
  EXPECT_NEAR(x[0], 3, 1e-12);
  EXPECT_NEAR(x[1], 2, 1e-12);
}

TEST(DenseLu, SingularThrows) {
  ck::RealMatrix a(2);
  a.at(0, 0) = 1; a.at(0, 1) = 1;
  a.at(1, 0) = 1; a.at(1, 1) = 1;
  EXPECT_THROW(ck::LuFactor<double>{std::move(a)}, std::runtime_error);
}

TEST(DenseLu, ComplexSystem) {
  using cplx = std::complex<double>;
  ck::ComplexMatrix a(2);
  a.at(0, 0) = cplx(1, 1);
  a.at(1, 1) = cplx(0, 2);
  ck::LuFactor<cplx> lu(std::move(a));
  auto x = lu.solve({cplx(2, 0), cplx(0, 4)});
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
  EXPECT_NEAR(x[1].real(), 2.0, 1e-12);
  EXPECT_NEAR(x[1].imag(), 0.0, 1e-12);
}

// --- Stimulus ----------------------------------------------------------------

TEST(Stimulus, Pulse) {
  auto p = ck::Stimulus::pulse(0, 1, /*delay*/ 1e-9, /*rise*/ 1e-10, /*fall*/ 1e-10,
                               /*width*/ 5e-10, /*period*/ 0);
  EXPECT_DOUBLE_EQ(p.at(0), 0);
  EXPECT_DOUBLE_EQ(p.at(1e-9 + 0.5e-10), 0.5);
  EXPECT_DOUBLE_EQ(p.at(1e-9 + 2e-10), 1.0);
  EXPECT_NEAR(p.at(1e-9 + 1e-10 + 5e-10 + 0.5e-10), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.at(1e-6), 0.0);
}

TEST(Stimulus, PulsePeriodic) {
  auto p = ck::Stimulus::pulse(0, 1, 0, 1e-12, 1e-12, 0.4e-9, 1e-9);
  EXPECT_DOUBLE_EQ(p.at(0.2e-9), 1.0);
  EXPECT_DOUBLE_EQ(p.at(1.2e-9), 1.0);  // next period
  EXPECT_DOUBLE_EQ(p.at(0.9e-9), 0.0);
}

TEST(Stimulus, Pwl) {
  auto p = ck::Stimulus::pwl({{0, 0}, {1, 2}, {3, 2}, {4, 0}});
  EXPECT_DOUBLE_EQ(p.at(-1), 0);
  EXPECT_DOUBLE_EQ(p.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.at(2), 2.0);
  EXPECT_DOUBLE_EQ(p.at(3.5), 1.0);
  EXPECT_DOUBLE_EQ(p.at(9), 0);
}

TEST(Stimulus, Bits) {
  auto b = ck::Stimulus::bits({0, 1, 1, 0}, 1e-9, 0.2e-9, 0.0, 0.9);
  EXPECT_DOUBLE_EQ(b.at(0.5e-9), 0.0);
  EXPECT_NEAR(b.at(1.1e-9), 0.45, 1e-9);  // mid-rise into bit 1
  EXPECT_DOUBLE_EQ(b.at(1.5e-9), 0.9);
  EXPECT_DOUBLE_EQ(b.at(2.5e-9), 0.9);   // no edge between equal bits
  EXPECT_DOUBLE_EQ(b.at(3.5e-9), 0.0);
}

// --- DC ----------------------------------------------------------------------

TEST(Dc, VoltageDivider) {
  ck::Circuit c;
  auto n1 = c.add_node("in");
  auto n2 = c.add_node("mid");
  c.add_vsource(n1, ck::kGround, ck::Stimulus::dc(10.0), "V1");
  c.add_resistor(n1, n2, 1000);
  c.add_resistor(n2, ck::kGround, 3000);
  auto sol = ck::solve_dc(c);
  // gmin (1e-12 S per node) perturbs the exact answer at the 1e-8 level.
  EXPECT_NEAR(sol.voltage(n2), 7.5, 1e-6);
  EXPECT_NEAR(sol.vsource_current(0), -10.0 / 4000.0, 1e-9);  // current out of +
}

TEST(Dc, InductorIsShort) {
  ck::Circuit c;
  auto n1 = c.add_node();
  auto n2 = c.add_node();
  c.add_vsource(n1, ck::kGround, ck::Stimulus::dc(1.0));
  c.add_inductor(n1, n2, 1e-9);
  c.add_resistor(n2, ck::kGround, 50);
  auto sol = ck::solve_dc(c);
  EXPECT_NEAR(sol.voltage(n2), 1.0, 1e-9);
  EXPECT_NEAR(sol.inductor_current(0), 1.0 / 50.0, 1e-12);
}

TEST(Dc, CurrentSourceIntoResistor) {
  ck::Circuit c;
  auto n1 = c.add_node();
  c.add_isource(ck::kGround, n1, ck::Stimulus::dc(1e-3));
  c.add_resistor(n1, ck::kGround, 2000);
  auto sol = ck::solve_dc(c);
  EXPECT_NEAR(sol.voltage(n1), 2.0, 1e-6);
}

TEST(Dc, VcvsAmplifies) {
  ck::Circuit c;
  auto in = c.add_node();
  auto out = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::dc(0.1));
  c.add_vcvs(out, ck::kGround, in, ck::kGround, 10.0);
  c.add_resistor(out, ck::kGround, 50);
  auto sol = ck::solve_dc(c);
  EXPECT_NEAR(sol.voltage(out), 1.0, 1e-9);
}

TEST(Dc, SingularSystemThrows) {
  // A degenerate voltage source (both terminals on one node) produces an
  // all-zero branch row: the assembled DC system itself is singular, not
  // just a factorization corner case.
  ck::Circuit c;
  auto a = c.add_node("a");
  c.add_resistor(a, ck::kGround, 10.0, "r");
  c.add_vsource(a, a, ck::Stimulus::dc(1.0), "vloop");
  EXPECT_THROW(ck::solve_dc(c), std::runtime_error);
}

// --- AC ----------------------------------------------------------------------

TEST(Ac, RcLowpassMagnitudeAndPhase) {
  // R = 1k, C = 1uF -> fc = 159.15 Hz.
  ck::Circuit c;
  auto in = c.add_node();
  auto out = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::dc(0), "vin", /*ac_mag*/ 1.0);
  c.add_resistor(in, out, 1000);
  c.add_capacitor(out, ck::kGround, 1e-6);
  const double fc = 1.0 / (2 * M_PI * 1000 * 1e-6);
  auto res = ck::run_ac(c, {fc / 100, fc, fc * 100}, {out});
  EXPECT_NEAR(std::abs(res.node_v[0][0]), 1.0, 1e-3);
  EXPECT_NEAR(std::abs(res.node_v[0][1]), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(std::abs(res.node_v[0][2]), 0.01, 1e-3);
  EXPECT_NEAR(std::arg(res.node_v[0][1]), -M_PI / 4, 1e-3);
}

TEST(Ac, SeriesRlcResonance) {
  // L = 1uH, C = 1nF -> f0 = 5.033 MHz. At resonance the series LC is a
  // short, so the mid node is pulled to ground and the full source drops
  // across R; well below resonance the LC is a high-impedance capacitor and
  // the mid node follows the source.
  ck::Circuit c;
  auto in = c.add_node();
  auto mid = c.add_node();
  auto out = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::dc(0), "vin", 1.0);
  c.add_resistor(in, mid, 10.0);
  c.add_inductor(mid, out, 1e-6);
  c.add_capacitor(out, ck::kGround, 1e-9);
  const double f0 = 1.0 / (2 * M_PI * std::sqrt(1e-6 * 1e-9));
  auto res = ck::run_ac(c, {f0 / 100, f0}, {mid});
  EXPECT_NEAR(std::abs(res.node_v[0][0]), 1.0, 1e-3);
  EXPECT_LT(std::abs(res.node_v[0][1]), 1e-6);
}

TEST(Ac, ImpedanceViaCurrentInjection) {
  // 1A into R || C reads Z directly as the node voltage.
  ck::Circuit c;
  auto n = c.add_node();
  c.add_isource(ck::kGround, n, ck::Stimulus::dc(0), "iin", 1.0);
  c.add_resistor(n, ck::kGround, 100.0);
  c.add_capacitor(n, ck::kGround, 1e-9);
  const double f = 1e6;
  auto res = ck::run_ac(c, {f}, {n});
  const std::complex<double> expect =
      1.0 / (1.0 / 100.0 + std::complex<double>(0, 2 * M_PI * f * 1e-9));
  EXPECT_NEAR(std::abs(res.node_v[0][0]), std::abs(expect), 1e-6);
}

TEST(Ac, LogFreqGrid) {
  auto g = ck::log_freq_grid(1e6, 1e9, 10);
  EXPECT_NEAR(g.front(), 1e6, 1);
  EXPECT_NEAR(g.back(), 1e9, 1e3);
  EXPECT_GE(g.size(), 30u);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
}

// --- Transient ---------------------------------------------------------------

TEST(Transient, RcStepMatchesAnalytic) {
  // tau = 1ns; v(t) = 1 - exp(-t/tau).
  ck::Circuit c;
  auto in = c.add_node();
  auto out = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::pulse(0, 1, 0, 1e-12, 1e-12, 1, 0));
  c.add_resistor(in, out, 1000);
  c.add_capacitor(out, ck::kGround, 1e-12);
  ck::TransientSpec spec;
  spec.dt = 1e-12;
  spec.t_stop = 5e-9;
  spec.probes = {out};
  auto res = ck::run_transient(c, spec);
  const auto& v = res.node_v[0];
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expect = 1.0 - std::exp(-t / 1e-9);
    EXPECT_NEAR(v.at(t), expect, 5e-3) << "t=" << t;
  }
}

TEST(Transient, RlStepCurrent) {
  // V=1 into R=10 + L=10nH: i(t) = 0.1 (1 - exp(-t R/L)), tau = 1ns.
  ck::Circuit c;
  auto in = c.add_node();
  auto mid = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::pulse(0, 1, 0, 1e-12, 1e-12, 1, 0), "v");
  c.add_resistor(in, mid, 10);
  c.add_inductor(mid, ck::kGround, 10e-9);
  ck::TransientSpec spec;
  spec.dt = 1e-12;
  spec.t_stop = 5e-9;
  spec.probes = {mid};
  spec.record_vsource_currents = true;
  auto res = ck::run_transient(c, spec);
  const auto& i = res.vsrc_i[0];
  // MNA convention: vsource current flows + -> circuit, recorded positive
  // into the + node; the source supplies -i.
  for (double t : {1e-9, 3e-9}) {
    const double expect = -0.1 * (1.0 - std::exp(-t / 1e-9));
    EXPECT_NEAR(i.at(t), expect, 2e-3) << "t=" << t;
  }
}

TEST(Transient, LcOscillationFrequencyAndEnergy) {
  // Ideal LC tank rung by an initial capacitor voltage: trapezoidal rule
  // conserves amplitude; check period = 2*pi*sqrt(LC).
  ck::Circuit c;
  auto n = c.add_node();
  const double L = 1e-9, C = 1e-12;  // f0 ~ 5.03 GHz
  c.add_capacitor(n, ck::kGround, C);
  c.add_inductor(n, ck::kGround, L);
  // Kick with a brief current pulse.
  c.add_isource(ck::kGround, n, ck::Stimulus::pulse(0, 10e-3, 0, 1e-13, 1e-13, 20e-12, 0));
  ck::TransientSpec spec;
  spec.dt = 0.2e-12;
  spec.t_stop = 3e-9;
  spec.probes = {n};
  spec.init_from_dc = false;
  auto res = ck::run_transient(c, spec);
  const auto& v = res.node_v[0];
  // Measure the oscillation period from successive rising zero crossings
  // in the free-running part.
  auto xs = v.crossings(0.0, 1e-9, +1);
  ASSERT_GE(xs.size(), 3u);
  const double period = xs[2] - xs[1];
  const double expect = 2 * M_PI * std::sqrt(L * C);
  EXPECT_NEAR(period, expect, expect * 0.01);
  // Trapezoidal integration should not blow up the amplitude.
  EXPECT_LT(v.max(), 1e3);
}

TEST(Transient, CoupledInductorsTransferEnergy) {
  // Two coupled RL branches: a step into L1 induces voltage on L2.
  ck::Circuit c;
  auto in = c.add_node();
  auto n1 = c.add_node();
  auto n2 = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::pulse(0, 1, 0, 10e-12, 10e-12, 1, 0));
  c.add_resistor(in, n1, 50);
  const int l1 = c.add_inductor(n1, ck::kGround, 5e-9);
  const int l2 = c.add_inductor(n2, ck::kGround, 5e-9);
  c.add_resistor(n2, ck::kGround, 50);
  c.add_coupling(l1, l2, 0.5);
  ck::TransientSpec spec;
  spec.dt = 1e-12;
  spec.t_stop = 2e-9;
  spec.probes = {n2};
  auto res = ck::run_transient(c, spec);
  // Induced voltage must be visibly nonzero during the edge.
  EXPECT_GT(std::abs(res.node_v[0].min()) + res.node_v[0].max(), 0.01);
}

TEST(Transient, InitFromDcStartsSettled) {
  ck::Circuit c;
  auto in = c.add_node();
  auto out = c.add_node();
  c.add_vsource(in, ck::kGround, ck::Stimulus::dc(1.0));
  c.add_resistor(in, out, 1000);
  c.add_capacitor(out, ck::kGround, 1e-12);
  ck::TransientSpec spec;
  spec.dt = 1e-12;
  spec.t_stop = 1e-9;
  spec.probes = {out};
  auto res = ck::run_transient(c, spec);
  // No startup transient: already at 1V.
  EXPECT_NEAR(res.node_v[0][0], 1.0, 1e-9);
  EXPECT_NEAR(res.node_v[0].final_value(), 1.0, 1e-9);
}

// --- Waveform measurements -----------------------------------------------

TEST(Waveform, CrossingsAndDelay) {
  // Ramp 0..1 over 1ns, then a delayed copy.
  std::vector<double> a, b;
  const double dt = 1e-12;
  for (int i = 0; i <= 2000; ++i) {
    const double t = i * dt;
    a.push_back(std::min(1.0, t / 1e-9));
    b.push_back(std::min(1.0, std::max(0.0, (t - 0.3e-9) / 1e-9)));
  }
  ck::Waveform wa(dt, a), wb(dt, b);
  auto d = ck::propagation_delay(wa, wb, 0, 1);
  ASSERT_TRUE(d.has_value());
  EXPECT_NEAR(*d, 0.3e-9, 2e-12);
}

TEST(Waveform, SettlingTime) {
  std::vector<double> s;
  const double dt = 1e-9;
  for (int i = 0; i < 1000; ++i) {
    s.push_back(1.0 + std::exp(-i * dt / 100e-9) * 0.5);
  }
  ck::Waveform w(dt, s);
  auto ts = w.settling_time(1.0, 0.01);
  ASSERT_TRUE(ts.has_value());
  // 0.5 exp(-t/100ns) < 0.01 -> t > 100ns * ln(50) = 391 ns.
  EXPECT_NEAR(*ts, 391e-9, 10e-9);
}

TEST(Waveform, AveragePower) {
  std::vector<double> v(100, 2.0), i(100, 3.0);
  EXPECT_DOUBLE_EQ(ck::average_power(ck::Waveform(1, v), ck::Waveform(1, i)), 6.0);
  EXPECT_THROW(ck::average_power(ck::Waveform(1, v), ck::Waveform(1, {1.0})),
               std::invalid_argument);
}
