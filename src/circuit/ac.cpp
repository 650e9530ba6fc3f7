#include "circuit/ac.hpp"

#include <cmath>

#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"
#include "circuit/sparse.hpp"
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

/// A result with every probe phasor slot allocated, so each frequency point
/// writes only its own slots.
AcResult empty_result(const std::vector<double>& freqs_hz, const std::vector<NodeId>& probes) {
  AcResult out;
  out.freq_hz = freqs_hz;
  out.node_v.assign(probes.size(), std::vector<cplx>(freqs_hz.size()));
  return out;
}

}  // namespace

AcResult run_ac_dense(const Circuit& ckt, const std::vector<double>& freqs_hz,
                      const std::vector<NodeId>& probes) {
  const int m = ckt.unknown_count();
  AcResult out = empty_result(freqs_hz, probes);
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
  stamp_static_complex(ckt, base);
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

AcResult run_ac_sparse(const Circuit& ckt, const std::vector<double>& freqs_hz,
                       const std::vector<NodeId>& probes) {
  const int m = ckt.unknown_count();
  AcResult out = empty_result(freqs_hz, probes);
  const auto& ls = ckt.inductors();
  const auto mutual = mutual_values(ckt);
  const auto rhs = ac_rhs(ckt);

  // Assemble the CSR pattern once: static stamps carry their values, the
  // frequency-dependent entries join the pattern with zero values. Per
  // point only the value array is copied and the jw terms patched in via
  // precomputed slots -- no reassembly, no re-sorting.
  ComplexSparseMatrix S(m);
  stamp_static<cplx>(ckt, S);
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    stamp_branch_incidence(S, ls[static_cast<std::size_t>(j)].a,
                           ls[static_cast<std::size_t>(j)].b, ckt.inductor_current_index(j),
                           cplx{1.0});
  }
  for (const auto& c : ckt.capacitors()) stamp_conductance(S, c.a, c.b, cplx{});
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    S.add(ckt.inductor_current_index(j), ckt.inductor_current_index(j), cplx{});
  }
  for (const auto& k : ckt.couplings()) {
    S.add(ckt.inductor_current_index(k.l1), ckt.inductor_current_index(k.l2), cplx{});
    S.add(ckt.inductor_current_index(k.l2), ckt.inductor_current_index(k.l1), cplx{});
  }
  S.finalize();
  const std::vector<cplx>& static_vals = S.vals();

  // Slot lists for the dynamic terms. stamp_conductance writes (aa, bb, ab,
  // ba); ground rows are skipped exactly as the stamp would.
  struct CapSlots { int aa, bb, ab, ba; double farads; };
  std::vector<CapSlots> cap_slots;
  cap_slots.reserve(ckt.capacitors().size());
  for (const auto& c : ckt.capacitors()) {
    const int ra = node_row(c.a), rb = node_row(c.b);
    CapSlots s{-1, -1, -1, -1, c.farads};
    if (ra >= 0) s.aa = S.slot(ra, ra);
    if (rb >= 0) s.bb = S.slot(rb, rb);
    if (ra >= 0 && rb >= 0) {
      s.ab = S.slot(ra, rb);
      s.ba = S.slot(rb, ra);
    }
    cap_slots.push_back(s);
  }
  struct IndSlot { int diag; double henries; };
  std::vector<IndSlot> ind_slots;
  ind_slots.reserve(ls.size());
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    const int col = ckt.inductor_current_index(j);
    ind_slots.push_back({S.slot(col, col), ls[static_cast<std::size_t>(j)].henries});
  }
  struct CoupSlots { int s12, s21; double mval; };
  std::vector<CoupSlots> coup_slots;
  coup_slots.reserve(ckt.couplings().size());
  for (std::size_t kk = 0; kk < ckt.couplings().size(); ++kk) {
    const auto& k = ckt.couplings()[kk];
    coup_slots.push_back({S.slot(ckt.inductor_current_index(k.l1), ckt.inductor_current_index(k.l2)),
                          S.slot(ckt.inductor_current_index(k.l2), ckt.inductor_current_index(k.l1)),
                          mutual[kk]});
  }

  core::parallel_for(freqs_hz.size(), [&](std::size_t fi) {
    const double w = 2.0 * 3.14159265358979323846 * freqs_hz[fi];
    const cplx jw(0.0, w);

    std::vector<cplx> vals = static_vals;
    for (const auto& s : cap_slots) {
      const cplx g = jw * s.farads;
      if (s.aa >= 0) vals[static_cast<std::size_t>(s.aa)] += g;
      if (s.bb >= 0) vals[static_cast<std::size_t>(s.bb)] += g;
      if (s.ab >= 0) vals[static_cast<std::size_t>(s.ab)] -= g;
      if (s.ba >= 0) vals[static_cast<std::size_t>(s.ba)] -= g;
    }
    for (const auto& s : ind_slots) vals[static_cast<std::size_t>(s.diag)] -= jw * s.henries;
    for (const auto& s : coup_slots) {
      vals[static_cast<std::size_t>(s.s12)] -= jw * s.mval;
      vals[static_cast<std::size_t>(s.s21)] -= jw * s.mval;
    }

    const CsrView<cplx> A = S.view_with(vals.data());
    const Ilu0Preconditioner<cplx> ilu(A);
    std::vector<cplx> x(static_cast<std::size_t>(m), cplx{});
    const auto stats = bicgstab(A, rhs, x, ilu);
    if (!stats.converged) throw std::runtime_error("sparse AC solve failed to converge (singular MNA matrix / floating node?)");
    for (std::size_t p = 0; p < probes.size(); ++p) {
      out.node_v[p][fi] =
          probes[p] == kGround ? cplx{} : x[static_cast<std::size_t>(node_row(probes[p]))];
    }
  });
  return out;
}

AcResult run_ac(const Circuit& ckt, const std::vector<double>& freqs_hz,
                const std::vector<NodeId>& probes) {
  GIA_SPAN("circuit/ac");
  core::instrument::counter_add(core::instrument::Counter::AcPoints, freqs_hz.size());
  const bool sparse = use_sparse_mna(ckt.unknown_count());
  if (core::instrument::enabled()) {
    core::instrument::gauge_set("solver_backend.circuit_ac", sparse ? 1.0 : 0.0);
  }
  return sparse ? run_ac_sparse(ckt, freqs_hz, probes) : run_ac_dense(ckt, freqs_hz, probes);
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
