#include "precond/scalar_ic0.hpp"

#include <cmath>

#include "core/status.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"

namespace geofem::precond {

std::size_t ScalarIC0Symbolic::memory_bytes() const {
  return (lptr.size() + lcol.size() + uptr.size() + ucol.size() + fwd.rows.size() +
          fwd.level_ptr.size() + bwd.rows.size() + bwd.level_ptr.size()) *
             sizeof(int) +
         (lsrc.size() + usrc.size() + dsrc.size()) * sizeof(std::int64_t) +
         apply_loops.entries().size() * sizeof(util::LoopStats::Entry);
}

std::shared_ptr<const ScalarIC0Symbolic> scalar_ic0_symbolic(const sparse::BlockCSR& a) {
  obs::ScopedSpan span("precond.symbolic.IC(0)");
  auto out = std::make_shared<ScalarIC0Symbolic>();
  ScalarIC0Symbolic& s = *out;
  s.n = a.n * sparse::kB;
  const int n_ = s.n;
  // Expand the block matrix to scalar lower/upper CSR (dropping exact zeros,
  // which the block format stores but a scalar method would not).
  s.lptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  s.uptr.assign(static_cast<std::size_t>(n_) + 1, 0);
  s.dsrc.assign(static_cast<std::size_t>(n_), 0);

  for (int pass = 0; pass < 2; ++pass) {
    std::vector<int> lpos(s.lptr.begin(), s.lptr.end() - 1);
    std::vector<int> upos(s.uptr.begin(), s.uptr.end() - 1);
    for (int bi = 0; bi < a.n; ++bi) {
      for (int e = a.rowptr[bi]; e < a.rowptr[bi + 1]; ++e) {
        const int bj = a.colind[e];
        const double* blk = a.block(e);
        for (int r = 0; r < sparse::kB; ++r) {
          const int row = sparse::kB * bi + r;
          for (int c = 0; c < sparse::kB; ++c) {
            const int col = sparse::kB * bj + c;
            const double v = blk[sparse::kB * r + c];
            const std::int64_t src =
                static_cast<std::int64_t>(e) * sparse::kBB + sparse::kB * r + c;
            if (row == col) {
              s.dsrc[static_cast<std::size_t>(row)] = src;
              continue;
            }
            if (v == 0.0) continue;
            if (col < row) {
              if (pass == 0) {
                ++s.lptr[static_cast<std::size_t>(row) + 1];
              } else {
                s.lcol[static_cast<std::size_t>(lpos[static_cast<std::size_t>(row)])] = col;
                s.lsrc[static_cast<std::size_t>(lpos[static_cast<std::size_t>(row)])] = src;
                ++lpos[static_cast<std::size_t>(row)];
              }
            } else {
              if (pass == 0) {
                ++s.uptr[static_cast<std::size_t>(row) + 1];
              } else {
                s.ucol[static_cast<std::size_t>(upos[static_cast<std::size_t>(row)])] = col;
                s.usrc[static_cast<std::size_t>(upos[static_cast<std::size_t>(row)])] = src;
                ++upos[static_cast<std::size_t>(row)];
              }
            }
          }
        }
      }
    }
    if (pass == 0) {
      for (int i = 0; i < n_; ++i) {
        s.lptr[static_cast<std::size_t>(i) + 1] += s.lptr[static_cast<std::size_t>(i)];
        s.uptr[static_cast<std::size_t>(i) + 1] += s.uptr[static_cast<std::size_t>(i)];
      }
      s.lcol.resize(static_cast<std::size_t>(s.lptr[static_cast<std::size_t>(n_)]));
      s.lsrc.resize(s.lcol.size());
      s.ucol.resize(static_cast<std::size_t>(s.uptr[static_cast<std::size_t>(n_)]));
      s.usrc.resize(s.ucol.size());
    }
  }

  // Substitution dependency levels over the scalar rows (hybrid apply).
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

ScalarIC0::ScalarIC0(const sparse::BlockCSR& a, Precision precision)
    : sym_(scalar_ic0_symbolic(a)), precision_(precision) {
  numeric(a);
}

ScalarIC0::ScalarIC0(const sparse::BlockCSR& a, std::shared_ptr<const ScalarIC0Symbolic> sym,
                     Precision precision)
    : sym_(std::move(sym)), precision_(precision) {
  GEOFEM_CHECK(sym_ && sym_->n == a.n * sparse::kB, "ScalarIC0: symbolic/matrix size mismatch");
  numeric(a);
}

void ScalarIC0::numeric(const sparse::BlockCSR& a) {
  obs::ScopedSpan span("precond.numeric.IC(0)");
  const ScalarIC0Symbolic& s = *sym_;
  const int n_ = s.n;
  breakdowns_ = 0;

  // Gather scalar values on the fixed pattern.
  lval_.resize(s.lsrc.size());
  for (std::size_t e = 0; e < s.lsrc.size(); ++e)
    lval_[e] = a.val[static_cast<std::size_t>(s.lsrc[e])];
  uval_.resize(s.usrc.size());
  for (std::size_t e = 0; e < s.usrc.size(); ++e)
    uval_[e] = a.val[static_cast<std::size_t>(s.usrc[e])];

  // Modified diagonal d_i = a_ii - sum a_ik^2 / d_k over the lower pattern.
  inv_d_.assign(static_cast<std::size_t>(n_), 0.0);
  for (int i = 0; i < n_; ++i) {
    const double aii = a.val[static_cast<std::size_t>(s.dsrc[static_cast<std::size_t>(i)])];
    double di = aii;
    for (int e = s.lptr[static_cast<std::size_t>(i)]; e < s.lptr[static_cast<std::size_t>(i) + 1]; ++e) {
      const double v = lval_[static_cast<std::size_t>(e)];
      di -= v * v * inv_d_[static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(e)])];
    }
    if (!(di > 0.0) || !std::isfinite(di)) {
      di = aii;
      ++breakdowns_;
    }
    if (di == 0.0 || !std::isfinite(di))
      throw Error(StatusCode::kFactorizationFailed, "IC(0): unusable diagonal after reset");
    inv_d_[static_cast<std::size_t>(i)] = 1.0 / di;
  }

  // kSingle: the factorization above always runs in fp64; only the stored
  // form the substitution streams is narrowed.
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

template <class T>
void ScalarIC0::apply_impl(const T* lval, const T* uval, const T* inv_d, const double* r,
                           double* z, int team) const {
  const ScalarIC0Symbolic& s = *sym_;
  // forward: y_i = (r_i - sum L_ik y_k) / d_i. Level-parallel; per-row
  // arithmetic unchanged, so bit-identical for any team size. The fp32 form
  // widens each stored value on load and accumulates in fp64.
  par::for_levels(s.fwd, team, [&](int i) {
    double acc = r[static_cast<std::size_t>(i)];
    for (int e = s.lptr[static_cast<std::size_t>(i)]; e < s.lptr[static_cast<std::size_t>(i) + 1]; ++e)
      acc -= static_cast<double>(lval[static_cast<std::size_t>(e)]) *
             z[static_cast<std::size_t>(s.lcol[static_cast<std::size_t>(e)])];
    z[static_cast<std::size_t>(i)] = acc * static_cast<double>(inv_d[static_cast<std::size_t>(i)]);
  });
  // backward: z_i = y_i - (sum U_ij z_j) / d_i
  par::for_levels(s.bwd, team, [&](int i) {
    double acc = 0.0;
    for (int e = s.uptr[static_cast<std::size_t>(i)]; e < s.uptr[static_cast<std::size_t>(i) + 1]; ++e)
      acc += static_cast<double>(uval[static_cast<std::size_t>(e)]) *
             z[static_cast<std::size_t>(s.ucol[static_cast<std::size_t>(e)])];
    z[static_cast<std::size_t>(i)] -= acc * static_cast<double>(inv_d[static_cast<std::size_t>(i)]);
  });
}

void ScalarIC0::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                      util::LoopStats* loops) const {
  const ScalarIC0Symbolic& s = *sym_;
  const int n_ = s.n;
  GEOFEM_CHECK(static_cast<int>(r.size()) == n_ && static_cast<int>(z.size()) == n_,
               "IC(0) apply size mismatch");
  const int team = par::threads();
  if (precision_ == Precision::kSingle) {
    apply_impl(lval32_.data(), uval32_.data(), inv32_.data(), r.data(), z.data(), team);
  } else {
    apply_impl(lval_.data(), uval_.data(), inv_d_.data(), r.data(), z.data(), team);
  }
  if (loops) loops->merge(s.apply_loops);
  if (flops)
    flops->precond +=
        2ULL * (s.lsrc.size() + s.usrc.size()) + 3ULL * static_cast<std::uint64_t>(n_);
}

std::size_t ScalarIC0::memory_bytes() const {
  return (lval_.size() + uval_.size() + inv_d_.size()) * sizeof(double) +
         (lval32_.size() + uval32_.size() + inv32_.size()) * sizeof(float) +
         sym_->memory_bytes();
}

}  // namespace geofem::precond
