#include "circuit/ac.hpp"

#include <cmath>

#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"
#include "core/instrument.hpp"
#include "core/parallel.hpp"

namespace gia::circuit {

namespace {

using cplx = std::complex<double>;

/// The AC right-hand side is frequency independent (source ac_mag only), so
/// it is built once and shared read-only across the sweep.
std::vector<cplx> ac_rhs(const Circuit& ckt) {
  std::vector<cplx> rhs(static_cast<std::size_t>(ckt.unknown_count()), cplx{});
  const auto& vs = ckt.vsources();
  for (int j = 0; j < static_cast<int>(vs.size()); ++j) {
    rhs[static_cast<std::size_t>(ckt.vsource_current_index(j))] =
        vs[static_cast<std::size_t>(j)].ac_mag;
  }
  for (const auto& is : ckt.isources()) {
    const int rf = node_row(is.from), rt = node_row(is.to);
    if (rf >= 0) rhs[static_cast<std::size_t>(rf)] -= is.ac_mag;
    if (rt >= 0) rhs[static_cast<std::size_t>(rt)] += is.ac_mag;
  }
  return rhs;
}

/// Mutual inductances: M = k * sqrt(L1 L2), precomputed once.
std::vector<double> mutual_values(const Circuit& ckt) {
  const auto& ls = ckt.inductors();
  std::vector<double> mval(ckt.couplings().size());
  for (std::size_t kk = 0; kk < ckt.couplings().size(); ++kk) {
    const auto& k = ckt.couplings()[kk];
    mval[kk] = k.k * std::sqrt(ls[static_cast<std::size_t>(k.l1)].henries *
                               ls[static_cast<std::size_t>(k.l2)].henries);
  }
  return mval;
}

}  // namespace

AcResult run_ac(const Circuit& ckt, const std::vector<double>& freqs_hz,
                const std::vector<NodeId>& probes) {
  GIA_SPAN("circuit/ac");
  core::instrument::counter_add(core::instrument::Counter::AcPoints, freqs_hz.size());
  const int m = ckt.unknown_count();
  // Every probe phasor slot is allocated up front, so each frequency point
  // writes only its own slots.
  AcResult out;
  out.freq_hz = freqs_hz;
  out.node_v.assign(probes.size(), std::vector<cplx>(freqs_hz.size()));
  const auto& ls = ckt.inductors();
  const auto mutual = mutual_values(ckt);
  const auto rhs = ac_rhs(ckt);

  // Static stamp hoisted out of the frequency loop: resistors, source and
  // VCVS constraints, and the inductor branch incidence are all frequency
  // independent. Each point copies this base and adds only the jwC / jwL
  // terms. The stamping order per matrix entry is unchanged (the hoisted
  // groups touch disjoint entries from the per-point ones), so the sweep
  // stays byte-identical to the stamp-everything-per-point code.
  ComplexMatrix base(m);
  stamp_static(ckt, base);
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    stamp_branch_incidence(base, ls[static_cast<std::size_t>(j)].a,
                           ls[static_cast<std::size_t>(j)].b, ckt.inductor_current_index(j),
                           cplx{1.0});
  }

  // Frequency points are independent systems: solve them concurrently. Each
  // point only writes its own out.node_v[...][fi] slot, so the sweep is
  // byte-identical at any thread count.
  core::parallel_for(freqs_hz.size(), [&](std::size_t fi) {
    const double w = 2.0 * 3.14159265358979323846 * freqs_hz[fi];
    const cplx jw(0.0, w);

    ComplexMatrix A = base;
    for (const auto& c : ckt.capacitors()) {
      stamp_conductance(A, c.a, c.b, jw * c.farads);
    }
    for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
      A.add(ckt.inductor_current_index(j), ckt.inductor_current_index(j),
            -jw * ls[static_cast<std::size_t>(j)].henries);
    }
    for (std::size_t kk = 0; kk < ckt.couplings().size(); ++kk) {
      const auto& k = ckt.couplings()[kk];
      A.add(ckt.inductor_current_index(k.l1), ckt.inductor_current_index(k.l2),
            -jw * mutual[kk]);
      A.add(ckt.inductor_current_index(k.l2), ckt.inductor_current_index(k.l1),
            -jw * mutual[kk]);
    }

    LuFactor<cplx> lu(std::move(A));
    const auto x = lu.solve(rhs);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      out.node_v[p][fi] =
          probes[p] == kGround ? cplx{} : x[static_cast<std::size_t>(node_row(probes[p]))];
    }
  });
  return out;
}

std::vector<double> log_freq_grid(double f_start_hz, double f_stop_hz, int points_per_decade) {
  std::vector<double> out;
  const double lg0 = std::log10(f_start_hz), lg1 = std::log10(f_stop_hz);
  const int n = std::max(2, static_cast<int>(std::ceil((lg1 - lg0) * points_per_decade)) + 1);
  for (int i = 0; i < n; ++i) {
    out.push_back(std::pow(10.0, lg0 + (lg1 - lg0) * i / (n - 1)));
  }
  return out;
}

}  // namespace gia::circuit
