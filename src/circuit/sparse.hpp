#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/instrument.hpp"

/// \file sparse.hpp
/// Sparse CSR matrix assembly and preconditioned Krylov solvers, templated
/// on the scalar so the same code serves real (DC/transient) and complex
/// (AC) MNA systems -- the production-scale counterpart of dense_lu.hpp.
///
/// Assembly mirrors `DenseMatrix`'s `add(r, c, v)` stamping interface, so
/// `mna.hpp`'s `stamp_*` templates work unchanged: stamp COO triplets, then
/// `finalize()` sorts them into CSR (duplicates summed in insertion order,
/// so the result is deterministic). After finalize the pattern is frozen and
/// two cheap per-point refresh mechanisms avoid reassembly across AC
/// frequency points / transient steps:
///
///  * `begin_refresh()` + replaying a prefix of the original `add` sequence
///    rewrites values in place (each assembly-order triplet remembers its
///    CSR slot), and
///  * `slot(r, c)` returns the CSR value index of an entry so callers can
///    precompute the handful of frequency-dependent slots once and patch a
///    copied value array per point.
///
/// Solvers: CG for SPD systems, BiCGSTAB for the general/indefinite/complex
/// MNA case, each taking a preconditioner (Jacobi or ILU(0)). Iterations are
/// surfaced through `Counter::KrylovIterations` and the returned stats.

namespace gia::circuit {

/// Unknown count at which solve_dc, run_ac and run_transient hand an MNA
/// system to the CSR + ILU(0)-BiCGSTAB path. Flow circuits are a few hundred
/// unknowns where dense LU wins (and stays the byte-stable reference);
/// production-scale PDN meshes are 10-100x past this.
inline constexpr int kSparseMinUnknowns = 512;

/// Does an MNA system of `unknowns` unknowns take the sparse path?
constexpr bool use_sparse_mna(int unknowns) noexcept { return unknowns >= kSparseMinUnknowns; }

/// Scalar helpers shared by the solvers (identity conj for real scalars).
inline double sp_conj(double v) { return v; }
inline std::complex<double> sp_conj(const std::complex<double>& v) { return std::conj(v); }
inline double sp_real(double v) { return v; }
inline double sp_real(const std::complex<double>& v) { return v.real(); }

/// Non-owning CSR view: pattern plus a value array. Lets the AC sweep share
/// one pattern across frequency points with per-point value arrays.
template <typename T>
struct CsrView {
  int n = 0;
  const int* row_ptr = nullptr;  ///< n + 1 entries
  const int* col_idx = nullptr;  ///< nnz entries, sorted within each row
  const T* vals = nullptr;       ///< nnz entries

  /// y = A x.
  void multiply(const T* x, T* y) const {
    for (int r = 0; r < n; ++r) {
      T acc{};
      for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) acc += vals[i] * x[col_idx[i]];
      y[r] = acc;
    }
  }
};

template <typename T>
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(int n) : n_(n) {}

  int size() const { return n_; }
  bool finalized() const { return finalized_; }
  std::size_t nnz() const { return vals_.size(); }

  /// Assembly mode (before `finalize`): record a COO triplet. Refresh mode
  /// (after `begin_refresh`): fold `v` into the CSR slot of the next
  /// assembly-order triplet, which must carry the same (r, c).
  void add(int r, int c, T v) {
    assert(r >= 0 && r < n_ && c >= 0 && c < n_);
    if (!finalized_) {
      tri_r_.push_back(r);
      tri_c_.push_back(c);
      tri_v_.push_back(v);
      return;
    }
    assert(cursor_ < tri_slot_.size() && "refresh must replay the assembly prefix");
    assert(tri_r_[cursor_] == r && tri_c_[cursor_] == c &&
           "refresh add() out of assembly order");
    vals_[static_cast<std::size_t>(tri_slot_[cursor_])] += v;
    ++cursor_;
  }

  /// Sort the recorded triplets into CSR. Duplicate (r, c) entries are
  /// summed in insertion order (deterministic). When `ensure_diagonal`,
  /// every (i, i) slot exists (explicit zero if never stamped) -- ILU(0)
  /// needs structural diagonals on MNA branch rows, whose stamped pattern
  /// is purely off-diagonal.
  void finalize(bool ensure_diagonal = true) {
    if (finalized_) throw std::logic_error("SparseMatrix already finalized");
    if (ensure_diagonal) {
      // Appended after the stamped triplets so they never perturb the
      // insertion-order value summation.
      for (int i = 0; i < n_; ++i) {
        tri_r_.push_back(i);
        tri_c_.push_back(i);
        tri_v_.push_back(T{});
      }
    }
    const std::size_t nt = tri_r_.size();
    std::vector<std::size_t> order(nt);
    for (std::size_t i = 0; i < nt; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (tri_r_[a] != tri_r_[b]) return tri_r_[a] < tri_r_[b];
      if (tri_c_[a] != tri_c_[b]) return tri_c_[a] < tri_c_[b];
      return a < b;  // keep insertion order within one (r, c) group
    });

    row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
    col_idx_.clear();
    vals_.clear();
    tri_slot_.assign(nt, 0);
    int prev_r = -1, prev_c = -1;
    for (std::size_t oi = 0; oi < nt; ++oi) {
      const std::size_t t = order[oi];
      const int r = tri_r_[t], c = tri_c_[t];
      if (r != prev_r || c != prev_c) {
        col_idx_.push_back(c);
        vals_.push_back(tri_v_[t]);
        ++row_ptr_[static_cast<std::size_t>(r) + 1];
        prev_r = r;
        prev_c = c;
      } else {
        vals_.back() += tri_v_[t];
      }
      tri_slot_[t] = static_cast<int>(vals_.size()) - 1;
    }
    for (int r = 0; r < n_; ++r) row_ptr_[static_cast<std::size_t>(r) + 1] += row_ptr_[static_cast<std::size_t>(r)];
    // Drop the assembly values; keep (r, c) and slots for refresh replay.
    tri_v_.clear();
    tri_v_.shrink_to_fit();
    finalized_ = true;
  }

  /// Zero all values and arm refresh mode: subsequent `add` calls must
  /// replay a prefix of the assembly sequence (same (r, c) order).
  void begin_refresh() {
    if (!finalized_) throw std::logic_error("begin_refresh before finalize");
    vals_.assign(vals_.size(), T{});
    cursor_ = 0;
  }

  /// CSR value index of entry (r, c), or -1 when outside the pattern.
  int slot(int r, int c) const {
    assert(finalized_);
    int lo = row_ptr_[static_cast<std::size_t>(r)], hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (col_idx_[static_cast<std::size_t>(mid)] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < row_ptr_[static_cast<std::size_t>(r) + 1] && col_idx_[static_cast<std::size_t>(lo)] == c) return lo;
    return -1;
  }

  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& col_idx() const { return col_idx_; }
  const std::vector<T>& vals() const { return vals_; }
  std::vector<T>& vals() { return vals_; }

  CsrView<T> view() const {
    assert(finalized_);
    return {n_, row_ptr_.data(), col_idx_.data(), vals_.data()};
  }
  /// View sharing this pattern with a caller-owned value array (e.g. a
  /// per-frequency copy).
  CsrView<T> view_with(const T* vals) const {
    assert(finalized_);
    return {n_, row_ptr_.data(), col_idx_.data(), vals};
  }

 private:
  int n_ = 0;
  std::vector<int> tri_r_, tri_c_;  ///< assembly (r, c) sequence, kept for refresh
  std::vector<T> tri_v_;            ///< assembly values, dropped at finalize
  std::vector<int> tri_slot_;       ///< assembly index -> CSR value slot
  std::vector<int> row_ptr_, col_idx_;
  std::vector<T> vals_;
  std::size_t cursor_ = 0;
  bool finalized_ = false;
};

/// Symmetric Ruiz equilibration scales for A. Iterates
/// d_i <- d_i / (rowmax_i * colmax_i)^(1/4) on the implicitly scaled
/// matrix until every row/column max-abs is within 10% of 1 (a few
/// passes in practice). Solving the scaled system (D A D) y = D b and
/// recovering x = D y preserves structural symmetry and brings MNA's
/// mixed unit systems -- 1e-12 gmin next to 1e6 milliohm-path
/// conductances next to +-1 branch incidences -- to O(1) entries,
/// without which ILU-preconditioned Krylov cannot reach tight
/// tolerances in double precision (the dense path's partial pivoting
/// absorbs the spread implicitly). The iteration matters: a one-shot
/// d_i = 1/sqrt(rowmax_i*colmax_i) divides a symmetric row by its full
/// max, leaving the scaled maxima as spread out as the originals.
template <typename T>
inline std::vector<double> equilibration_scales(const CsrView<T>& a) {
  const std::size_t n = static_cast<std::size_t>(a.n);
  std::vector<double> d(n, 1.0);
  std::vector<double> rmax(n), cmax(n);
  for (int pass = 0; pass < 8; ++pass) {
    std::fill(rmax.begin(), rmax.end(), 0.0);
    std::fill(cmax.begin(), cmax.end(), 0.0);
    for (int r = 0; r < a.n; ++r) {
      for (int s = a.row_ptr[r]; s < a.row_ptr[r + 1]; ++s) {
        const std::size_t c = static_cast<std::size_t>(a.col_idx[s]);
        const double m = std::abs(a.vals[s]) * d[static_cast<std::size_t>(r)] * d[c];
        rmax[static_cast<std::size_t>(r)] = std::max(rmax[static_cast<std::size_t>(r)], m);
        cmax[c] = std::max(cmax[c], m);
      }
    }
    bool converged = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = rmax[i] * cmax[i];
      if (p <= 0.0) continue;
      if (std::abs(std::sqrt(p) - 1.0) > 0.1) converged = false;
      d[i] /= std::sqrt(std::sqrt(p));
    }
    if (converged) break;
  }
  return d;
}

/// In-place A -> D A D on the matrix's own value array.
template <typename T>
inline void apply_equilibration(SparseMatrix<T>& A, const std::vector<double>& d) {
  const auto& row_ptr = A.row_ptr();
  const auto& col_idx = A.col_idx();
  auto& vals = A.vals();
  for (int r = 0; r < A.size(); ++r) {
    for (int s = row_ptr[static_cast<std::size_t>(r)]; s < row_ptr[static_cast<std::size_t>(r) + 1]; ++s) {
      vals[static_cast<std::size_t>(s)] *=
          d[static_cast<std::size_t>(r)] * d[static_cast<std::size_t>(col_idx[static_cast<std::size_t>(s)])];
    }
  }
}

/// Diagonal (Jacobi) preconditioner: z = D^-1 r. Rows whose diagonal is
/// absent or zero (MNA branch rows) pass through unscaled.
template <typename T>
class JacobiPreconditioner {
 public:
  explicit JacobiPreconditioner(const CsrView<T>& a) : inv_diag_(static_cast<std::size_t>(a.n), T{1}) {
    for (int r = 0; r < a.n; ++r) {
      for (int i = a.row_ptr[r]; i < a.row_ptr[r + 1]; ++i) {
        if (a.col_idx[i] == r && std::abs(a.vals[i]) > 1e-300) {
          inv_diag_[static_cast<std::size_t>(r)] = T{1} / a.vals[i];
          break;
        }
      }
    }
  }

  void apply(const std::vector<T>& r, std::vector<T>& z) const {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = inv_diag_[i] * r[i];
  }

 private:
  std::vector<T> inv_diag_;
};

/// ILU(0): incomplete LU on the matrix's own sparsity pattern (which
/// `finalize` guarantees includes the full diagonal). Zero pivots (nodes
/// coupled only through branch elements, where full LU would pivot) are
/// replaced by unit pivots, so construction never fails on a well-posed
/// MNA system; singular systems show up as Krylov non-convergence instead.
template <typename T>
class Ilu0Preconditioner {
 public:
  explicit Ilu0Preconditioner(const CsrView<T>& a)
      : n_(a.n),
        row_ptr_(a.row_ptr, a.row_ptr + a.n + 1),
        col_idx_(a.col_idx, a.col_idx + a.row_ptr[a.n]),
        luv_(a.vals, a.vals + a.row_ptr[a.n]),
        diag_(static_cast<std::size_t>(a.n), -1) {
    for (int r = 0; r < n_; ++r) {
      for (int i = row_ptr_[static_cast<std::size_t>(r)]; i < row_ptr_[static_cast<std::size_t>(r) + 1]; ++i) {
        if (col_idx_[static_cast<std::size_t>(i)] == r) diag_[static_cast<std::size_t>(r)] = i;
      }
      if (diag_[static_cast<std::size_t>(r)] < 0) {
        throw std::runtime_error("singular MNA matrix (floating node?)");
      }
    }
    factor();
  }

  /// z = (LU)^-1 r.
  void apply(const std::vector<T>& r, std::vector<T>& z) const {
    z = r;
    // Forward: L has unit diagonal; strictly-lower entries precede diag_.
    for (int i = 0; i < n_; ++i) {
      T acc = z[static_cast<std::size_t>(i)];
      for (int k = row_ptr_[static_cast<std::size_t>(i)]; k < diag_[static_cast<std::size_t>(i)]; ++k) {
        acc -= luv_[static_cast<std::size_t>(k)] * z[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
      z[static_cast<std::size_t>(i)] = acc;
    }
    // Backward.
    for (int i = n_ - 1; i >= 0; --i) {
      T acc = z[static_cast<std::size_t>(i)];
      for (int k = diag_[static_cast<std::size_t>(i)] + 1; k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
        acc -= luv_[static_cast<std::size_t>(k)] * z[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
      }
      z[static_cast<std::size_t>(i)] = acc * inv_diag_[static_cast<std::size_t>(i)];
    }
  }

 private:
  void factor() {
    inv_diag_.resize(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      for (int ik = row_ptr_[static_cast<std::size_t>(i)]; ik < diag_[static_cast<std::size_t>(i)]; ++ik) {
        const int k = col_idx_[static_cast<std::size_t>(ik)];
        // l(i, k) = a(i, k) / u(k, k), then eliminate along row k's upper part.
        const T lik = luv_[static_cast<std::size_t>(ik)] * inv_diag_[static_cast<std::size_t>(k)];
        luv_[static_cast<std::size_t>(ik)] = lik;
        for (int kj = diag_[static_cast<std::size_t>(k)] + 1; kj < row_ptr_[static_cast<std::size_t>(k) + 1]; ++kj) {
          const int j = col_idx_[static_cast<std::size_t>(kj)];
          const int ij = slot_in_row(i, j);
          if (ij >= 0) luv_[static_cast<std::size_t>(ij)] -= lik * luv_[static_cast<std::size_t>(kj)];
        }
      }
      const T piv = luv_[static_cast<std::size_t>(diag_[static_cast<std::size_t>(i)])];
      // Zero pivots are expected on nonsingular MNA systems: a node touched
      // only by branch elements (inductor/vsource incidence) has a
      // structurally zero diagonal that full LU would pivot around, but
      // ILU(0) cannot reorder. Substituting a unit pivot keeps the
      // preconditioner well defined (locally weaker, still convergent);
      // genuinely singular systems then surface as Krylov non-convergence.
      inv_diag_[static_cast<std::size_t>(i)] =
          std::abs(piv) < 1e-300 ? T{1} : T{1} / piv;
    }
  }

  int slot_in_row(int r, int c) const {
    int lo = row_ptr_[static_cast<std::size_t>(r)], hi = row_ptr_[static_cast<std::size_t>(r) + 1];
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      if (col_idx_[static_cast<std::size_t>(mid)] < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < row_ptr_[static_cast<std::size_t>(r) + 1] && col_idx_[static_cast<std::size_t>(lo)] == c) return lo;
    return -1;
  }

  int n_;
  std::vector<int> row_ptr_, col_idx_;
  std::vector<T> luv_;
  std::vector<int> diag_;
  std::vector<T> inv_diag_;
};

struct KrylovOptions {
  double tol_rel = 1e-12;  ///< convergence: ||r|| <= tol_rel * ||b|| + tol_abs
  double tol_abs = 0.0;
  int max_iters = 0;  ///< 0 = max(200, 4n)
};

struct KrylovStats {
  int iterations = 0;
  double residual = 0.0;  ///< final ||b - A x||_2
  bool converged = false;
};

namespace detail {

template <typename T>
double norm2(const std::vector<T>& v) {
  double s = 0;
  for (const auto& x : v) s += sp_real(sp_conj(x) * x);
  return std::sqrt(s);
}

template <typename T>
T dot(const std::vector<T>& a, const std::vector<T>& b) {
  T s{};
  for (std::size_t i = 0; i < a.size(); ++i) s += sp_conj(a[i]) * b[i];
  return s;
}

inline int default_max_iters(int n, int requested) {
  if (requested > 0) return requested;
  return n > 50 ? 4 * n : 200;
}

}  // namespace detail

/// Preconditioned conjugate gradient for SPD systems (thermal / resistive
/// meshes). `x` carries the initial guess in and the solution out.
template <typename T, typename Precond>
KrylovStats cg(const CsrView<T>& a, const std::vector<T>& b, std::vector<T>& x,
               const Precond& m, const KrylovOptions& opts = {}) {
  const int n = a.n;
  const std::size_t un = static_cast<std::size_t>(n);
  if (b.size() != un) throw std::invalid_argument("rhs size mismatch");
  x.resize(un, T{});
  const double bnorm = detail::norm2(b);
  const double tol = opts.tol_rel * bnorm + opts.tol_abs;
  const int max_iters = detail::default_max_iters(n, opts.max_iters);

  std::vector<T> r(un), z(un), p(un), ap(un);
  a.multiply(x.data(), ap.data());
  for (std::size_t i = 0; i < un; ++i) r[i] = b[i] - ap[i];

  KrylovStats stats;
  stats.residual = detail::norm2(r);
  if (stats.residual <= tol || bnorm == 0.0) {
    stats.converged = true;
    return stats;
  }
  m.apply(r, z);
  p = z;
  T rz = detail::dot(r, z);
  for (int it = 0; it < max_iters; ++it) {
    a.multiply(p.data(), ap.data());
    const T pap = detail::dot(p, ap);
    if (std::abs(pap) < 1e-300) break;  // breakdown (not SPD / singular)
    const T alpha = rz / pap;
    for (std::size_t i = 0; i < un; ++i) x[i] += alpha * p[i];
    for (std::size_t i = 0; i < un; ++i) r[i] -= alpha * ap[i];
    stats.iterations = it + 1;
    stats.residual = detail::norm2(r);
    if (stats.residual <= tol) {
      stats.converged = true;
      break;
    }
    m.apply(r, z);
    const T rz_new = detail::dot(r, z);
    const T beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < un; ++i) p[i] = z[i] + beta * p[i];
  }
  core::instrument::counter_add(core::instrument::Counter::KrylovIterations,
                                static_cast<std::uint64_t>(stats.iterations));
  return stats;
}

/// Preconditioned BiCGSTAB for the general (indefinite, nonsymmetric,
/// complex) MNA case. `x` carries the initial guess in and the solution out.
template <typename T, typename Precond>
KrylovStats bicgstab(const CsrView<T>& a, const std::vector<T>& b, std::vector<T>& x,
                     const Precond& m, const KrylovOptions& opts = {}) {
  const int n = a.n;
  const std::size_t un = static_cast<std::size_t>(n);
  if (b.size() != un) throw std::invalid_argument("rhs size mismatch");
  x.resize(un, T{});
  const double bnorm = detail::norm2(b);
  const double tol = opts.tol_rel * bnorm + opts.tol_abs;
  const int max_iters = detail::default_max_iters(n, opts.max_iters);

  std::vector<T> r(un), rhat(un), p(un, T{}), v(un, T{}), phat(un), shat(un), t(un), s(un);
  a.multiply(x.data(), t.data());
  for (std::size_t i = 0; i < un; ++i) r[i] = b[i] - t[i];
  rhat = r;

  KrylovStats stats;
  stats.residual = detail::norm2(r);
  if (stats.residual <= tol || bnorm == 0.0) {
    stats.converged = true;
    return stats;
  }

  T rho{1}, alpha{1}, omega{1};
  // `fresh` marks a (re)started Krylov space: the first direction is the
  // plain residual. BiCGSTAB's bi-orthogonality can break down exactly
  // (rho or rhat.v vanishing with r still large) -- classic on small MNA
  // systems -- and the standard cure is restarting against the current
  // residual rather than giving up; max_iters still bounds the total work.
  bool fresh = true;
  for (int it = 0; it < max_iters; ++it) {
    T rho_new = detail::dot(rhat, r);
    if (!fresh &&
        std::abs(rho_new) < 1e-14 * detail::norm2(rhat) * detail::norm2(r)) {
      rhat = r;
      rho_new = detail::dot(rhat, r);
      fresh = true;
    }
    if (std::abs(rho_new) < 1e-300) break;  // residual itself is numerically zero
    if (fresh) {
      p = r;
      fresh = false;
    } else {
      const T beta = (rho_new / rho) * (alpha / omega);
      for (std::size_t i = 0; i < un; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    rho = rho_new;
    m.apply(p, phat);
    a.multiply(phat.data(), v.data());
    const T rhat_v = detail::dot(rhat, v);
    if (std::abs(rhat_v) < 1e-300) {  // breakdown: restart next iteration
      rhat = r;
      fresh = true;
      stats.iterations = it + 1;
      continue;
    }
    alpha = rho / rhat_v;
    for (std::size_t i = 0; i < un; ++i) s[i] = r[i] - alpha * v[i];
    stats.iterations = it + 1;
    if (detail::norm2(s) <= tol) {
      for (std::size_t i = 0; i < un; ++i) x[i] += alpha * phat[i];
      stats.residual = detail::norm2(s);
      stats.converged = true;
      break;
    }
    m.apply(s, shat);
    a.multiply(shat.data(), t.data());
    const T tt = detail::dot(t, t);
    if (std::abs(tt) < 1e-300) break;
    omega = detail::dot(t, s) / tt;
    for (std::size_t i = 0; i < un; ++i) x[i] += alpha * phat[i] + omega * shat[i];
    for (std::size_t i = 0; i < un; ++i) r[i] = s[i] - omega * t[i];
    stats.residual = detail::norm2(r);
    if (stats.residual <= tol) {
      stats.converged = true;
      break;
    }
    if (std::abs(omega) < 1e-300) {  // stabilizer stagnated: restart
      rhat = r;
      fresh = true;
    }
  }
  core::instrument::counter_add(core::instrument::Counter::KrylovIterations,
                                static_cast<std::uint64_t>(stats.iterations));
  return stats;
}

using RealSparseMatrix = SparseMatrix<double>;
using ComplexSparseMatrix = SparseMatrix<std::complex<double>>;

extern template class SparseMatrix<double>;
extern template class SparseMatrix<std::complex<double>>;
extern template class JacobiPreconditioner<double>;
extern template class JacobiPreconditioner<std::complex<double>>;
extern template class Ilu0Preconditioner<double>;
extern template class Ilu0Preconditioner<std::complex<double>>;

}  // namespace gia::circuit
