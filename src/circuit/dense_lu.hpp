#pragma once

#include <cmath>
#include <complex>
#include <stdexcept>
#include <vector>

#include "core/instrument.hpp"

/// \file dense_lu.hpp
/// Dense LU factorization with partial pivoting, templated on the scalar so
/// the same code serves real (DC/transient) and complex (AC) MNA systems.
/// Circuits in this toolkit are a few hundred unknowns, where a dense
/// factorization beats sparse bookkeeping comfortably. The factor itself is
/// kept as per-row lists of its nonzeros: a transient factors once and then
/// solves every timestep, and an MNA ladder's factor is mostly zeros (the
/// 42-unknown PRBS channel keeps 518 of 1,722 off-diagonal entries), so the
/// solves walk only those. Skipping an exact-zero term leaves every nonzero
/// result bit-identical to the dense substitution (see solve_into).

namespace gia::circuit {

template <typename T>
struct abs_of {
  static double get(const T& v) { return std::abs(v); }
};

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(int n) : n_(n), a_(static_cast<std::size_t>(n) * n, T{}) {}

  int size() const { return n_; }
  T& at(int r, int c) { return a_[static_cast<std::size_t>(r) * n_ + c]; }
  const T& at(int r, int c) const { return a_[static_cast<std::size_t>(r) * n_ + c]; }
  /// Contiguous row base pointer -- lets the LU inner loops index as row[c]
  /// instead of recomputing r * n + c per element.
  T* row(int r) { return a_.data() + static_cast<std::size_t>(r) * n_; }
  const T* row(int r) const { return a_.data() + static_cast<std::size_t>(r) * n_; }
  void add(int r, int c, T v) { at(r, c) += v; }
  void clear() { a_.assign(a_.size(), T{}); }

 private:
  int n_ = 0;
  std::vector<T> a_;
};

/// LU factorization with partial pivoting, run on the dense matrix and kept
/// as each row's nonzeros. Throws on a singular matrix -- in MNA terms, a
/// floating node or a source loop.
template <typename T>
class LuFactor {
 public:
  explicit LuFactor(DenseMatrix<T> m) : piv_(static_cast<std::size_t>(m.size())) {
    core::instrument::counter_add(core::instrument::Counter::LuFactorizations);
    factor(m);
    compress(m);
  }

  /// Solve A x = b; returns x.
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
  }

  /// Solve A x = b into `x` (resized to n), reusing its storage. `b` and
  /// `x` must be distinct vectors.
  ///
  /// Each row sums its terms in ascending column order, as the dense
  /// substitution loops do, but skips the entries that are exactly zero.
  /// For finite x, a dropped term acc -= 0 * x_j can only have flipped the
  /// sign of a zero acc (-0 - (-0) = +0), so every nonzero result is
  /// bit-identical to the dense solve's and a zero result may differ only
  /// in its sign.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    core::instrument::counter_add(core::instrument::Counter::LuSolves);
    const std::size_t n = piv_.size();
    if (b.size() != n) throw std::invalid_argument("rhs size mismatch");
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[static_cast<std::size_t>(piv_[i])];
    // Forward substitution (L has unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = x[i];
      for (std::size_t k = row_start_[i]; k < diag_at_[i]; ++k) acc -= vals_[k] * x[cols_[k]];
      x[i] = acc;
    }
    // Back substitution, multiplying by the reciprocal pivots cached at
    // factor time instead of dividing per row.
    for (std::size_t i = n; i-- > 0;) {
      T acc = x[i];
      for (std::size_t k = diag_at_[i]; k < row_start_[i + 1]; ++k) acc -= vals_[k] * x[cols_[k]];
      x[i] = acc * inv_diag_[i];
    }
  }

 private:
  void factor(DenseMatrix<T>& lu) {
    const int n = lu.size();
    inv_diag_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) piv_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      // Pivot: largest magnitude in column k.
      int p = k;
      double best = abs_of<T>::get(lu.at(k, k));
      for (int r = k + 1; r < n; ++r) {
        const double v = abs_of<T>::get(lu.at(r, k));
        if (v > best) { best = v; p = r; }
      }
      if (best < 1e-300) throw std::runtime_error("singular MNA matrix (floating node?)");
      if (p != k) {
        T* rk = lu.row(k);
        T* rp = lu.row(p);
        for (int c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
        std::swap(piv_[static_cast<std::size_t>(k)], piv_[static_cast<std::size_t>(p)]);
      }
      const T* rk = lu.row(k);
      // U(k, k) is final after this step, so its reciprocal serves both the
      // elimination below and later solves.
      const T inv_piv = T{1} / rk[k];
      inv_diag_[static_cast<std::size_t>(k)] = inv_piv;
      for (int r = k + 1; r < n; ++r) {
        T* rr = lu.row(r);
        const T m = rr[k] * inv_piv;
        rr[k] = m;
        for (int c = k + 1; c < n; ++c) rr[c] -= m * rk[c];
      }
    }
  }

  /// Keep the off-diagonal nonzeros of each row, L part then U part, in
  /// ascending column order; the dense factor is dropped afterwards.
  void compress(const DenseMatrix<T>& lu) {
    const int n = lu.size();
    row_start_.assign(1, 0);
    diag_at_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const T* ri = lu.row(i);
      for (int c = 0; c < n; ++c) {
        if (c == i) {
          diag_at_[static_cast<std::size_t>(i)] = cols_.size();
        } else if (ri[c] != T{}) {
          cols_.push_back(static_cast<std::size_t>(c));
          vals_.push_back(ri[c]);
        }
      }
      row_start_.push_back(cols_.size());
    }
  }

  std::vector<int> piv_;
  std::vector<T> inv_diag_;  ///< 1 / U(i, i), cached during factor()
  /// Row i's L entries are [row_start_[i], diag_at_[i]) and its U entries
  /// [diag_at_[i], row_start_[i + 1]) of cols_/vals_.
  std::vector<std::size_t> row_start_, diag_at_, cols_;
  std::vector<T> vals_;
};

using RealMatrix = DenseMatrix<double>;
using ComplexMatrix = DenseMatrix<std::complex<double>>;

}  // namespace gia::circuit
