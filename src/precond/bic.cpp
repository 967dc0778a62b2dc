#include "precond/bic.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/status.hpp"
#include "obs/span.hpp"
#include "simd/block3.hpp"
#include "simd/multirhs.hpp"
#include "util/check.hpp"

namespace geofem::precond {

using sparse::kB;
using sparse::kBB;

namespace {

/// z_i = D_i * acc via the accumulator in use. For ScalarAcc3 this is exactly
/// the historical b3_apply (x + 0.0 is exact), for AvxAcc3 the FMA tree.
/// T = float widens the stored block on load; arithmetic stays fp64.
template <class Acc, class T>
inline void acc_apply_block(const T* d, const double* x, double* z) {
  Acc a;
  a.init_zero();
  a.madd(d, x);
  a.reduce(z);
}

/// Invert a 3x3 block; on singularity fall back to inverting its diagonal
/// part (breakdown remedy that keeps the preconditioner usable). A zero or
/// non-finite diagonal entry is beyond the remedy — the factorization cannot
/// produce a usable M and must say so instead of injecting a silent 1.0.
void invert_or_reset(const double* d, double* inv) {
  if (sparse::b3_inverse(d, inv)) return;
  for (int t = 0; t < kBB; ++t) inv[t] = 0.0;
  for (int c = 0; c < kB; ++c) {
    const double v = d[kB * c + c];
    if (v == 0.0 || !std::isfinite(v))
      throw Error(StatusCode::kFactorizationFailed, "BIC: unusable pivot block diagonal");
    inv[kB * c + c] = 1.0 / v;
  }
}

/// Level-scheduled BIC(0) substitution, accumulator chosen once per apply.
/// `aval` is the block value array the sweep streams — a.val for fp64, the
/// narrowed fp32 mirror for kSingle (same entry indexing).
template <class Acc, class T>
void bic0_apply_impl(const sparse::BlockCSR& a, const T* aval, const T* inv_d,
                     const par::LevelSchedule& fwd, const par::LevelSchedule& bwd,
                     const double* r, double* z, int team) {
  // forward: y_i = D~_i^-1 (r_i - sum_{k<i} A_ik y_k)
  par::for_levels(fwd, team, [&](int i) {
    Acc acc;
    acc.init(r + static_cast<std::size_t>(i) * kB);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1] && a.colind[e] < i; ++e)
      acc.msub(aval + static_cast<std::size_t>(e) * kBB,
               z + static_cast<std::size_t>(a.colind[e]) * kB);
    double tmp[kB];
    acc.reduce(tmp);
    acc_apply_block<Acc>(inv_d + static_cast<std::size_t>(i) * kBB, tmp,
                         z + static_cast<std::size_t>(i) * kB);
  });
  // backward: z_i -= D~_i^-1 sum_{j>i} A_ij z_j
  par::for_levels(bwd, team, [&](int i) {
    Acc acc;
    acc.init_zero();
    for (int e = a.rowptr[i + 1] - 1; e >= a.rowptr[i] && a.colind[e] > i; --e)
      acc.madd(aval + static_cast<std::size_t>(e) * kBB,
               z + static_cast<std::size_t>(a.colind[e]) * kB);
    double tmp[kB], corr[kB];
    acc.reduce(tmp);
    acc_apply_block<Acc>(inv_d + static_cast<std::size_t>(i) * kBB, tmp, corr);
    double* zi = z + static_cast<std::size_t>(i) * kB;
    zi[0] -= corr[0];
    zi[1] -= corr[1];
    zi[2] -= corr[2];
  });
}

/// Level-scheduled ILU(k) substitution over the fill pattern.
template <class Acc, class T>
void iluk_apply_impl(const ILUkSymbolic& s, const T* lval, const T* uval,
                     const T* inv_d, const double* r, double* z, int team) {
  // forward (unit L): y_i = r_i - sum L_ik y_k
  par::for_levels(s.fwd, team, [&](int i) {
    Acc acc;
    acc.init(r + static_cast<std::size_t>(i) * kB);
    for (int e = s.lptr[static_cast<std::size_t>(i)]; e < s.lptr[static_cast<std::size_t>(i) + 1];
         ++e)
      acc.msub(lval + static_cast<std::size_t>(e) * kBB,
               z + static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(e)]) * kB);
    acc.reduce(z + static_cast<std::size_t>(i) * kB);
  });
  // backward: z_i = invD_i (y_i - sum U_ij z_j)
  par::for_levels(s.bwd, team, [&](int i) {
    double* zi = z + static_cast<std::size_t>(i) * kB;
    Acc acc;
    acc.init(zi);
    for (int e = s.uptr[static_cast<std::size_t>(i)]; e < s.uptr[static_cast<std::size_t>(i) + 1];
         ++e)
      acc.msub(uval + static_cast<std::size_t>(e) * kBB,
               z + static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(e)]) * kB);
    double tmp[kB];
    acc.reduce(tmp);
    acc_apply_block<Acc>(inv_d + static_cast<std::size_t>(i) * kBB, tmp, zi);
  });
}

/// Multi-RHS twin of bic0_apply_impl: same schedules and update order, the
/// innermost dimension over RHS columns (simd::b3k_* kernels, UseAvx chosen
/// once per apply). The per-row 3*k work arrays live on the stack.
template <bool UseAvx, class T>
void bic0_apply_multi_impl(const sparse::BlockCSR& a, const T* aval, const T* inv_d,
                           const par::LevelSchedule& fwd, const par::LevelSchedule& bwd,
                           const double* r, double* z, int k, int team) {
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
  par::for_levels(fwd, team, [&](int i) {
    double tmp[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    const double* ri = r + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) tmp[c] = ri[c];
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1] && a.colind[e] < i; ++e)
      simd::b3k_msub<T, UseAvx>(aval + static_cast<std::size_t>(e) * kBB,
                                z + static_cast<std::size_t>(a.colind[e]) * rk, tmp, k);
    simd::b3k_apply<T, UseAvx>(inv_d + static_cast<std::size_t>(i) * kBB, tmp,
                               z + static_cast<std::size_t>(i) * rk, k);
  });
  par::for_levels(bwd, team, [&](int i) {
    double tmp[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    double corr[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    for (std::size_t c = 0; c < rk; ++c) tmp[c] = 0.0;
    for (int e = a.rowptr[i + 1] - 1; e >= a.rowptr[i] && a.colind[e] > i; --e)
      simd::b3k_madd<T, UseAvx>(aval + static_cast<std::size_t>(e) * kBB,
                                z + static_cast<std::size_t>(a.colind[e]) * rk, tmp, k);
    simd::b3k_apply<T, UseAvx>(inv_d + static_cast<std::size_t>(i) * kBB, tmp, corr, k);
    double* zi = z + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) zi[c] -= corr[c];
  });
}

/// Multi-RHS twin of iluk_apply_impl over the fill pattern.
template <bool UseAvx, class T>
void iluk_apply_multi_impl(const ILUkSymbolic& s, const T* lval, const T* uval, const T* inv_d,
                           const double* r, double* z, int k, int team) {
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
  par::for_levels(s.fwd, team, [&](int i) {
    double tmp[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    const double* ri = r + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) tmp[c] = ri[c];
    for (int e = s.lptr[static_cast<std::size_t>(i)];
         e < s.lptr[static_cast<std::size_t>(i) + 1]; ++e)
      simd::b3k_msub<T, UseAvx>(
          lval + static_cast<std::size_t>(e) * kBB,
          z + static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(e)]) * rk, tmp, k);
    double* zi = z + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) zi[c] = tmp[c];
  });
  par::for_levels(s.bwd, team, [&](int i) {
    double tmp[static_cast<std::size_t>(kB) * simd::kMaxMultiRhs];
    double* zi = z + static_cast<std::size_t>(i) * rk;
    for (std::size_t c = 0; c < rk; ++c) tmp[c] = zi[c];
    for (int e = s.uptr[static_cast<std::size_t>(i)];
         e < s.uptr[static_cast<std::size_t>(i) + 1]; ++e)
      simd::b3k_msub<T, UseAvx>(
          uval + static_cast<std::size_t>(e) * kBB,
          z + static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(e)]) * rk, tmp, k);
    simd::b3k_apply<T, UseAvx>(inv_d + static_cast<std::size_t>(i) * kBB, tmp, zi, k);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// BIC(0)
// ---------------------------------------------------------------------------

BIC0::BIC0(const sparse::BlockCSR& a, Precision precision, bool modified)
    : a_(a), precision_(precision) {
  obs::ScopedSpan span("precond.factor.BIC(0)");
  inv_d_.resize(static_cast<std::size_t>(a.n) * kBB);
  std::vector<double> dmod(static_cast<std::size_t>(a.n) * kBB);
  for (int i = 0; i < a.n; ++i) {
    double* di = dmod.data() + static_cast<std::size_t>(i) * kBB;
    std::copy_n(a.block(a.diag_entry(i)), kBB, di);
    for (int e = modified ? a.rowptr[i] : a.rowptr[i + 1]; e < a.rowptr[i + 1]; ++e) {
      const int k = a.colind[e];
      if (k >= i) continue;
      // di -= A_ik * D~_k^-1 * A_ik^T   (A_ki = A_ik^T by symmetry)
      const double* aik = a.block(e);
      const double* invk = inv_d_.data() + static_cast<std::size_t>(k) * kBB;
      double t[kBB] = {};  // t = A_ik * invk
      sparse::b3_gemm(aik, invk, t);
      // di -= t * A_ik^T
      for (int r = 0; r < kB; ++r)
        for (int c = 0; c < kB; ++c) {
          double s = 0.0;
          for (int m = 0; m < kB; ++m) s += t[kB * r + m] * aik[kB * c + m];
          di[kB * r + c] -= s;
        }
    }
    // Over-subtraction remedy: if the corrections drove the block indefinite
    // (which makes M indefinite and breaks CG), fall back to the unmodified
    // diagonal A_ii for this row.
    if (modified && !sparse::is_spd(di, kB)) {
      std::copy_n(a.block(a.diag_entry(i)), kBB, di);
    }
    invert_or_reset(di, inv_d_.data() + static_cast<std::size_t>(i) * kBB);
  }

  // Substitution dependency levels for the hybrid apply: forward over the
  // strict lower pattern, backward over the strict upper. Each row is one
  // loop per sweep over its strict part plus the diagonal.
  std::vector<int> lev(static_cast<std::size_t>(a.n), 0);
  for (int i = 0; i < a.n; ++i) {
    int l = 0, len = 0;
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1] && a.colind[e] < i; ++e) {
      l = std::max(l, lev[static_cast<std::size_t>(a.colind[e])] + 1);
      ++len;
    }
    lev[static_cast<std::size_t>(i)] = l;
    apply_loops_.record(len + 1);
    apply_loops_.record(a.rowptr[i + 1] - a.rowptr[i] - len);
  }
  fwd_ = par::schedule_from_levels(lev);
  for (int i = a.n - 1; i >= 0; --i) {
    int l = 0;
    for (int e = a.rowptr[i + 1] - 1; e >= a.rowptr[i] && a.colind[e] > i; --e)
      l = std::max(l, lev[static_cast<std::size_t>(a.colind[e])] + 1);
    lev[static_cast<std::size_t>(i)] = l;
  }
  bwd_ = par::schedule_from_levels(lev);

  // kSingle: narrow the stored form — D~^-1 plus the matrix values the
  // substitution reads in place — and drop the fp64 diagonal array.
  if (precision_ == Precision::kSingle) {
    narrow_or_throw(inv_d_, inv32_);
    narrow_or_throw(std::span<const double>(a.val.data(), a.val.size()), aval32_);
    inv_d_.clear();
    inv_d_.shrink_to_fit();
  }
}

void BIC0::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                 util::LoopStats* loops) const {
  const auto& a = a_;
  GEOFEM_CHECK(r.size() == a.ndof() && z.size() == a.ndof(), "BIC0 apply size mismatch");
  const int team = par::threads();
  // Rows of one dependency level are independent; per-row arithmetic is the
  // serial sweep's (for the accumulator in use), so the result is
  // bit-identical for any team size.
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      bic0_apply_impl<simd::AvxAcc3T<float>>(a, aval32_.data(), inv32_.data(), fwd_, bwd_,
                                             r.data(), z.data(), team);
    } else
#endif
    {
      bic0_apply_impl<simd::ScalarAcc3T<float>>(a, aval32_.data(), inv32_.data(), fwd_, bwd_,
                                                r.data(), z.data(), team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      bic0_apply_impl<simd::AvxAcc3>(a, a.val.data(), inv_d_.data(), fwd_, bwd_, r.data(),
                                     z.data(), team);
    } else
#endif
    {
      bic0_apply_impl<simd::ScalarAcc3>(a, a.val.data(), inv_d_.data(), fwd_, bwd_, r.data(),
                                        z.data(), team);
    }
  }
  if (loops) loops->merge(apply_loops_);
  if (flops)
    flops->precond += 2ULL * kBB * static_cast<std::uint64_t>(a.nnz_blocks() + a.n);
}

void BIC0::apply_multi(std::span<const double> r, std::span<double> z, int k,
                       util::FlopCounter* flops, util::LoopStats* loops) const {
  const auto& a = a_;
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "BIC0 apply_multi: bad column count");
  GEOFEM_CHECK(r.size() == a.ndof() * static_cast<std::size_t>(k) && r.size() == z.size(),
               "BIC0 apply_multi size mismatch");
  const int team = par::threads();
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      bic0_apply_multi_impl<true>(a, aval32_.data(), inv32_.data(), fwd_, bwd_, r.data(),
                                  z.data(), k, team);
    } else
#endif
    {
      bic0_apply_multi_impl<false>(a, aval32_.data(), inv32_.data(), fwd_, bwd_, r.data(),
                                   z.data(), k, team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      bic0_apply_multi_impl<true>(a, a.val.data(), inv_d_.data(), fwd_, bwd_, r.data(), z.data(),
                                  k, team);
    } else
#endif
    {
      bic0_apply_multi_impl<false>(a, a.val.data(), inv_d_.data(), fwd_, bwd_, r.data(),
                                   z.data(), k, team);
    }
  }
  if (loops) loops->merge(apply_loops_);
  if (flops)
    flops->precond += 2ULL * kBB * static_cast<std::uint64_t>(a.nnz_blocks() + a.n) *
                      static_cast<std::uint64_t>(k);
}

// ---------------------------------------------------------------------------
// BlockILUk
// ---------------------------------------------------------------------------

std::size_t ILUkSymbolic::memory_bytes() const {
  return (lptr.size() + lcol.size() + uptr.size() + ucol.size() + aslot.size() +
          elim_src.size() + elim_dst.size() + fwd.rows.size() + fwd.level_ptr.size() +
          bwd.rows.size() + bwd.level_ptr.size()) *
             sizeof(int) +
         elim_ptr.size() * sizeof(std::int64_t) +
         apply_loops.entries().size() * sizeof(util::LoopStats::Entry);
}

std::shared_ptr<const ILUkSymbolic> iluk_symbolic(const sparse::BlockCSR& a, int fill_level) {
  GEOFEM_CHECK(fill_level >= 0, "fill level must be >= 0");
  obs::ScopedSpan span("precond.symbolic.BIC(k)");
  auto out = std::make_shared<ILUkSymbolic>();
  ILUkSymbolic& s = *out;
  const int n_ = a.n;
  s.n = n_;
  s.fill_level = fill_level;
  const int fill_level_ = fill_level;

  // ---- level-of-fill pattern, row by row ----------------------------------
  // ulev/ucol per finished row are needed by later rows.
  std::vector<std::vector<int>> urows_col(static_cast<std::size_t>(n_));
  std::vector<std::vector<int>> urows_lev(static_cast<std::size_t>(n_));
  std::vector<std::vector<int>> lrows_col(static_cast<std::size_t>(n_));

  std::vector<int> wlev(static_cast<std::size_t>(n_), -1);
  std::vector<int> touched;
  for (int i = 0; i < n_; ++i) {
    touched.clear();
    std::set<int> pending;  // unprocessed cols < i, ascending
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const int j = a.colind[e];
      wlev[static_cast<std::size_t>(j)] = 0;
      touched.push_back(j);
      if (j < i) pending.insert(j);
    }
    while (!pending.empty()) {
      const int k = *pending.begin();
      pending.erase(pending.begin());
      const int lev_ik = wlev[static_cast<std::size_t>(k)];
      const auto& ucol = urows_col[static_cast<std::size_t>(k)];
      const auto& ulev = urows_lev[static_cast<std::size_t>(k)];
      for (std::size_t t = 0; t < ucol.size(); ++t) {
        const int j = ucol[t];
        if (j == i) continue;
        const int cand = lev_ik + ulev[t] + 1;
        if (cand > fill_level_) continue;
        int& cur = wlev[static_cast<std::size_t>(j)];
        if (cur == -1) {
          cur = cand;
          touched.push_back(j);
          if (j < i) pending.insert(j);
        } else if (cand < cur) {
          cur = cand;
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int j : touched) {
      if (j < i) {
        lrows_col[static_cast<std::size_t>(i)].push_back(j);
      } else if (j > i) {
        urows_col[static_cast<std::size_t>(i)].push_back(j);
        urows_lev[static_cast<std::size_t>(i)].push_back(wlev[static_cast<std::size_t>(j)]);
      }
      wlev[static_cast<std::size_t>(j)] = -1;
    }
  }

  // ---- flatten pattern into CSR arrays -------------------------------------
  s.lptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  s.uptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int i = 0; i < n_; ++i) {
    s.lptr[static_cast<std::size_t>(i) + 1] =
        s.lptr[static_cast<std::size_t>(i)] + static_cast<int>(lrows_col[static_cast<std::size_t>(i)].size());
    s.uptr[static_cast<std::size_t>(i) + 1] =
        s.uptr[static_cast<std::size_t>(i)] + static_cast<int>(urows_col[static_cast<std::size_t>(i)].size());
  }
  s.lcol.reserve(static_cast<std::size_t>(s.lptr.back()));
  s.ucol.reserve(static_cast<std::size_t>(s.uptr.back()));
  for (int i = 0; i < n_; ++i) {
    s.lcol.insert(s.lcol.end(), lrows_col[static_cast<std::size_t>(i)].begin(),
                  lrows_col[static_cast<std::size_t>(i)].end());
    s.ucol.insert(s.ucol.end(), urows_col[static_cast<std::size_t>(i)].begin(),
                  urows_col[static_cast<std::size_t>(i)].end());
    lrows_col[static_cast<std::size_t>(i)].clear();
    lrows_col[static_cast<std::size_t>(i)].shrink_to_fit();
  }

  // ---- elimination schedule -------------------------------------------------
  // Slot layout per row i: [0, nl) L entries, [nl, nl+nu) U entries, nl+nu
  // the diagonal. wslot[col] = slot of col in the current row, -1 otherwise;
  // the schedule records, per L entry (i,k), every in-pattern update target,
  // so the numeric phase never consults the pattern again.
  s.aslot.assign(static_cast<std::size_t>(a.nnz_blocks()), -1);
  s.elim_ptr.assign(s.lcol.size() + 1, 0);
  std::vector<int> wslot(static_cast<std::size_t>(n_), -1);
  for (int i = 0; i < n_; ++i) {
    const int lb = s.lptr[static_cast<std::size_t>(i)], le = s.lptr[static_cast<std::size_t>(i) + 1];
    const int ub = s.uptr[static_cast<std::size_t>(i)], ue = s.uptr[static_cast<std::size_t>(i) + 1];
    const int nl = le - lb;
    for (int t = 0; t < nl; ++t)
      wslot[static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(lb + t)])] = t;
    for (int t = 0; t < ue - ub; ++t)
      wslot[static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(ub + t)])] = nl + t;
    wslot[static_cast<std::size_t>(i)] = nl + (ue - ub);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      s.aslot[static_cast<std::size_t>(e)] = wslot[static_cast<std::size_t>(a.colind[e])];
    for (int e = lb; e < le; ++e) {
      const int k = s.lcol[static_cast<std::size_t>(e)];
      for (int f = s.uptr[static_cast<std::size_t>(k)]; f < s.uptr[static_cast<std::size_t>(k) + 1]; ++f) {
        const int j = s.ucol[static_cast<std::size_t>(f)];
        if (wslot[static_cast<std::size_t>(j)] == -1) continue;  // outside pattern: dropped
        s.elim_src.push_back(f);
        s.elim_dst.push_back(wslot[static_cast<std::size_t>(j)]);
      }
      s.elim_ptr[static_cast<std::size_t>(e) + 1] = static_cast<std::int64_t>(s.elim_src.size());
    }
    for (int t = lb; t < le; ++t) wslot[static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(t)])] = -1;
    for (int t = ub; t < ue; ++t) wslot[static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(t)])] = -1;
    wslot[static_cast<std::size_t>(i)] = -1;
  }

  // ---- substitution dependency levels (hybrid apply) ------------------------
  {
    std::vector<int> lev(static_cast<std::size_t>(n_), 0);
    for (int i = 0; i < n_; ++i) {
      int l = 0;
      for (int e = s.lptr[static_cast<std::size_t>(i)]; e < s.lptr[static_cast<std::size_t>(i) + 1]; ++e)
        l = std::max(l, lev[static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(e)])] + 1);
      lev[static_cast<std::size_t>(i)] = l;
    }
    s.fwd = par::schedule_from_levels(lev);
    for (int i = n_ - 1; i >= 0; --i) {
      int l = 0;
      for (int e = s.uptr[static_cast<std::size_t>(i)]; e < s.uptr[static_cast<std::size_t>(i) + 1]; ++e)
        l = std::max(l, lev[static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(e)])] + 1);
      lev[static_cast<std::size_t>(i)] = l;
    }
    s.bwd = par::schedule_from_levels(lev);
  }
  s.apply_loops = substitution_loops(s.lptr, s.uptr);
  return out;
}

BlockILUk::BlockILUk(const sparse::BlockCSR& a, int fill_level, Precision precision)
    : sym_(iluk_symbolic(a, fill_level)), precision_(precision) {
  numeric(a);
}

BlockILUk::BlockILUk(const sparse::BlockCSR& a, std::shared_ptr<const ILUkSymbolic> sym,
                     Precision precision)
    : sym_(std::move(sym)), precision_(precision) {
  GEOFEM_CHECK(sym_ && sym_->n == a.n, "BlockILUk: symbolic/matrix size mismatch");
  numeric(a);
}

void BlockILUk::numeric(const sparse::BlockCSR& a) {
  obs::ScopedSpan span("precond.numeric.BIC(k)");
  const ILUkSymbolic& s = *sym_;
  const int n_ = s.n;
  lval_.assign(s.lcol.size() * kBB, 0.0);
  uval_.assign(s.ucol.size() * kBB, 0.0);
  inv_d_.assign(static_cast<std::size_t>(n_) * kBB, 0.0);

  // Block IKJ elimination on the fixed pattern, driven entirely by the
  // precomputed schedule. Arithmetic order matches the cold factorization
  // exactly (ascending pivot k, ascending U entry of k), so factors are
  // bit-identical whether the pattern was just built or plan-cached.
  std::size_t max_width = 0;
  for (int i = 0; i < n_; ++i) {
    const std::size_t w = static_cast<std::size_t>(s.lptr[static_cast<std::size_t>(i) + 1] -
                                                   s.lptr[static_cast<std::size_t>(i)] +
                                                   s.uptr[static_cast<std::size_t>(i) + 1] -
                                                   s.uptr[static_cast<std::size_t>(i)]) + 1;
    max_width = std::max(max_width, w);
  }
  std::vector<double> wval(max_width * kBB);
  for (int i = 0; i < n_; ++i) {
    const int lb = s.lptr[static_cast<std::size_t>(i)], le = s.lptr[static_cast<std::size_t>(i) + 1];
    const int ub = s.uptr[static_cast<std::size_t>(i)], ue = s.uptr[static_cast<std::size_t>(i) + 1];
    const int nl = le - lb, nu = ue - ub;
    std::fill_n(wval.begin(), static_cast<std::size_t>(nl + nu + 1) * kBB, 0.0);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const double* src = a.block(e);
      double* dst = wval.data() + static_cast<std::size_t>(s.aslot[static_cast<std::size_t>(e)]) * kBB;
      for (int t = 0; t < kBB; ++t) dst[t] += src[t];
    }
    // eliminate: ascending k < i within the L pattern
    for (int e = lb; e < le; ++e) {
      const int k = s.lcol[static_cast<std::size_t>(e)];
      double* lik = wval.data() + static_cast<std::size_t>(e - lb) * kBB;
      // L_ik = w_k * invD_k
      double tmp[kBB] = {};
      sparse::b3_gemm(lik, inv_d_.data() + static_cast<std::size_t>(k) * kBB, tmp);
      std::copy_n(tmp, kBB, lik);
      // w_j -= L_ik * U_kj for the scheduled in-pattern targets
      for (std::int64_t op = s.elim_ptr[static_cast<std::size_t>(e)];
           op < s.elim_ptr[static_cast<std::size_t>(e) + 1]; ++op) {
        sparse::b3_gemm_sub(
            lik, uval_.data() + static_cast<std::size_t>(s.elim_src[static_cast<std::size_t>(op)]) * kBB,
            wval.data() + static_cast<std::size_t>(s.elim_dst[static_cast<std::size_t>(op)]) * kBB);
      }
    }
    // scatter back
    std::copy_n(wval.data(), static_cast<std::size_t>(nl) * kBB,
                lval_.data() + static_cast<std::size_t>(lb) * kBB);
    std::copy_n(wval.data() + static_cast<std::size_t>(nl) * kBB, static_cast<std::size_t>(nu) * kBB,
                uval_.data() + static_cast<std::size_t>(ub) * kBB);
    invert_or_reset(wval.data() + static_cast<std::size_t>(nl + nu) * kBB,
                    inv_d_.data() + static_cast<std::size_t>(i) * kBB);
  }

  // kSingle: the factorization above always runs in fp64; narrow the stored
  // factors and drop the fp64 arrays.
  if (precision_ == Precision::kSingle) {
    narrow_or_throw(lval_, lval32_);
    narrow_or_throw(uval_, uval32_);
    narrow_or_throw(inv_d_, inv32_);
    lval_.clear();
    lval_.shrink_to_fit();
    uval_.clear();
    uval_.shrink_to_fit();
    inv_d_.clear();
    inv_d_.shrink_to_fit();
  }
}

void BlockILUk::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                      util::LoopStats* loops) const {
  const ILUkSymbolic& s = *sym_;
  const int n_ = s.n;
  GEOFEM_CHECK(static_cast<int>(r.size()) == n_ * kB && static_cast<int>(z.size()) == n_ * kB,
               "BlockILUk apply size mismatch");
  const int team = par::threads();
  // Level-parallel; per-row arithmetic unchanged (for the accumulator in
  // use), so bit-identical for any team size.
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      iluk_apply_impl<simd::AvxAcc3T<float>>(s, lval32_.data(), uval32_.data(), inv32_.data(),
                                             r.data(), z.data(), team);
    } else
#endif
    {
      iluk_apply_impl<simd::ScalarAcc3T<float>>(s, lval32_.data(), uval32_.data(), inv32_.data(),
                                                r.data(), z.data(), team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      iluk_apply_impl<simd::AvxAcc3>(s, lval_.data(), uval_.data(), inv_d_.data(), r.data(),
                                     z.data(), team);
    } else
#endif
    {
      iluk_apply_impl<simd::ScalarAcc3>(s, lval_.data(), uval_.data(), inv_d_.data(), r.data(),
                                        z.data(), team);
    }
  }
  if (loops) loops->merge(s.apply_loops);
  if (flops)
    flops->precond +=
        2ULL * kBB * (s.lcol.size() + s.ucol.size() + static_cast<std::uint64_t>(n_));
}

void BlockILUk::apply_multi(std::span<const double> r, std::span<double> z, int k,
                            util::FlopCounter* flops, util::LoopStats* loops) const {
  const ILUkSymbolic& s = *sym_;
  const int n_ = s.n;
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "BlockILUk apply_multi: bad column count");
  GEOFEM_CHECK(r.size() == static_cast<std::size_t>(n_) * kB * static_cast<std::size_t>(k) &&
                   r.size() == z.size(),
               "BlockILUk apply_multi size mismatch");
  const int team = par::threads();
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      iluk_apply_multi_impl<true>(s, lval32_.data(), uval32_.data(), inv32_.data(), r.data(),
                                  z.data(), k, team);
    } else
#endif
    {
      iluk_apply_multi_impl<false>(s, lval32_.data(), uval32_.data(), inv32_.data(), r.data(),
                                   z.data(), k, team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      iluk_apply_multi_impl<true>(s, lval_.data(), uval_.data(), inv_d_.data(), r.data(),
                                  z.data(), k, team);
    } else
#endif
    {
      iluk_apply_multi_impl<false>(s, lval_.data(), uval_.data(), inv_d_.data(), r.data(),
                                   z.data(), k, team);
    }
  }
  if (loops) loops->merge(s.apply_loops);
  if (flops)
    flops->precond += 2ULL * kBB * (s.lcol.size() + s.ucol.size() + static_cast<std::uint64_t>(n_)) *
                      static_cast<std::uint64_t>(k);
}

std::size_t BlockILUk::memory_bytes() const {
  return (lval_.size() + uval_.size() + inv_d_.size()) * sizeof(double) +
         (lval32_.size() + uval32_.size() + inv32_.size()) * sizeof(float) +
         sym_->memory_bytes();
}

}  // namespace geofem::precond
