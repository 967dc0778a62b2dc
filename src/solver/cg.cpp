#include "solver/cg.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/span.hpp"
#include "simd/simd.hpp"
#include "sparse/multivec.hpp"
#include "sparse/vector_ops.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::solver {

std::string to_string(CGVariant v) {
  switch (v) {
    case CGVariant::kClassic: return "classic";
    case CGVariant::kGropp: return "gropp";
    case CGVariant::kPipelined: return "pipelined";
  }
  return "?";
}

/// Stagnation probe, one ring per column: slot it % W of column c holds its
/// relative residual from W iterations ago by the time iteration `it` reads
/// it.
class CGEngine::Stagnation {
 public:
  Stagnation(int window, int columns)
      : w_(window > 0 ? static_cast<std::size_t>(window) : 0),
        ring_(w_ * static_cast<std::size_t>(columns)) {}

  bool operator()(int c, int it, double rel) {
    if (w_ == 0) return false;
    const auto i = static_cast<std::size_t>(it);
    double& slot = ring_[static_cast<std::size_t>(c) * w_ + i % w_];
    if (i >= w_ && rel > 0.99 * slot) return true;
    slot = rel;
    return false;
  }

 private:
  std::size_t w_;
  std::vector<double> ring_;
};

void require_rhs(double bnorm) { GEOFEM_CHECK(bnorm > 0.0, "pcg: zero right-hand side"); }

CGEngine::CGEngine(CGOps ops, std::span<const double> b, std::span<double> x,
                   std::span<CGResult> res, std::span<const double> tolerances)
    : ops_(std::move(ops)),
      k_(static_cast<int>(res.size())),
      b_(b),
      x_(x),
      res_(res),
      tol_(tolerances),
      reg_(obs::current()),
      fc_(&res.front().flops),
      ls_(&res.front().loops),
      kw_(k_),
      r_(ops_.n * res.size()),
      bnorm_(res.size()) {
  const auto k = static_cast<std::size_t>(k_);
  GEOFEM_CHECK(k_ >= 1 && k_ <= simd::kMaxMultiRhs && (k_ == 1 || ops_.halo == 0),
               "pcg: bad column count");
  GEOFEM_CHECK(b.size() == ops_.n * k && x.size() == (ops_.n + ops_.halo) * k,
               "pcg size mismatch");
  GEOFEM_CHECK(tol_.empty() || tol_.size() == k, "pcg: tolerances must be empty or one per column");
  if (k_ > 1) {
    bw_.resize(b.size());
    xw_.resize(b.size());
  }
  sum_dot(b_, b_, bnorm_.data());
  for (double& v : bnorm_) {
    v = std::sqrt(v);
    require_rhs(v);
  }
}

void CGEngine::select(std::vector<int> cols) {
  cols_ = std::move(cols);
  kw_ = nlive_ = static_cast<int>(cols_.size());
  live_.assign(cols_.size(), 1);
  if (k_ == 1) return;
  const auto k = static_cast<std::size_t>(k_), kw = cols_.size();
  for (std::size_t i = 0; i < ops_.n; ++i)
    for (std::size_t w = 0; w < kw; ++w) {
      bw_[i * kw + w] = b_[i * k + static_cast<std::size_t>(cols_[w])];
      xw_[i * kw + w] = x_[i * k + static_cast<std::size_t>(cols_[w])];
    }
}

void CGEngine::spmv(std::span<double> v, std::span<double> out) {
  obs::ScopedSpan s(reg_, kw_ == 1 ? "pcg.spmv" : "pcg.spmm");
  if (kw_ == 1)
    ops_.apply_a(v.first(len_halo()), own(out), fc_, ls_);
  else
    ops_.apply_a_multi(v.first(len()), own(out), kw_, fc_, ls_);
}

void CGEngine::precond(std::span<const double> in, std::span<double> out) {
  obs::ScopedSpan s(reg_, "pcg.precond");
  if (kw_ == 1)
    ops_.apply_m(in.first(ops_.n), own(out), fc_, ls_);
  else
    ops_.apply_m_multi(in.first(len()), own(out), kw_, fc_, ls_);
}

void CGEngine::dot(std::span<const double> a, std::span<const double> b, double* out) {
  if (kw_ == 1)
    *out = sparse::dot(a.first(ops_.n), b.first(ops_.n), fc_);
  else
    sparse::dot_multi(a.data(), b.data(), ops_.n, kw_, out, fc_);
}

void CGEngine::axpy(const Cols& alpha, std::span<const double> v, std::span<double> y) {
  if (kw_ == 1)
    sparse::axpy(alpha[0], v.first(ops_.n), y.first(ops_.n), fc_);
  else
    sparse::axpy_multi(alpha.data(), live_.data(), v.data(), y.data(), ops_.n, kw_, fc_);
}

void CGEngine::xpby(std::span<const double> v, const Cols& beta, std::span<double> y) {
  if (kw_ == 1)
    sparse::xpby(v.first(ops_.n), beta[0], y.first(ops_.n), fc_);
  else
    sparse::xpby_multi(beta.data(), live_.data(), v.data(), y.data(), ops_.n, kw_, fc_);
}

void CGEngine::reduce(std::span<double> v, const std::function<void()>& overlap) {
  if (ops_.sum) {
    ops_.sum(v, overlap);
  } else if (overlap) {
    overlap();
  }
}

void CGEngine::sum_dot(std::span<const double> a, std::span<const double> b, double* out) {
  dot(a, b, out);
  reduce({out, static_cast<std::size_t>(kw_)});
}

void CGEngine::residual() {
  spmv(x(), r_);
  const std::span<const double> bb = b();
  for (std::size_t i = 0; i < len(); ++i) r_[i] = bb[i] - r_[i];
  fc_->blas1 += len();
}

void CGEngine::start(CGStart start, const CGOptions& opt) {
  std::vector<int> all(static_cast<std::size_t>(k_));
  std::iota(all.begin(), all.end(), 0);
  select(std::move(all));
  restart(start, opt);
}

void CGEngine::restart(CGStart start, const CGOptions& opt) {
  Cols rnorm(static_cast<std::size_t>(kw_));
  if (start == CGStart::kCold) {
    sparse::fill(x(), 0.0);
    sparse::copy(b(), own(r_));
    for (int w = 0; w < kw_; ++w) rnorm[w] = bnorm_[static_cast<std::size_t>(cols_[w])];
  } else {
    residual();
    sum_dot(own(r_), own(r_), rnorm.data());
    for (double& v : rnorm) v = std::sqrt(v);
  }
  for (int w = 0; w < kw_; ++w) {
    CGResult& c = col(w);
    c.relative_residual = rnorm[w] / bnorm_[static_cast<std::size_t>(cols_[w])];
    if (opt.record_residuals) c.residual_history.push_back(c.relative_residual);
  }
}

void CGEngine::freeze(int w, SolveStatus status) {
  live_[static_cast<std::size_t>(w)] = 0;
  --nlive_;
  col(w).status = status;
  if (k_ == 1) return;  // the working x is the caller's
  const auto k = static_cast<std::size_t>(k_), kw = static_cast<std::size_t>(kw_);
  const auto c = static_cast<std::size_t>(cols_[w]);
  for (std::size_t i = 0; i < ops_.n; ++i)
    x_[i * k + c] = xw_[i * kw + static_cast<std::size_t>(w)];
}

void CGEngine::step() {
  ++iterations_;
  for (int w = 0; w < kw_; ++w)
    if (live_[w]) ++col(w).iterations;
}

void CGEngine::advance(int it, const Cols& rnorm, Stagnation& stagnated, const CGOptions& opt) {
  for (int w = 0; w < kw_; ++w) {
    if (!live_[w]) continue;
    CGResult& c = col(w);
    const double rel = rnorm[w] / bnorm_[static_cast<std::size_t>(cols_[w])];
    c.relative_residual = rel;
    if (opt.record_residuals) c.residual_history.push_back(rel);
    // A converged column is frozen by settle(), before its ring is consulted.
    if (!std::isfinite(rnorm[w])) {
      freeze(w, SolveStatus::kBreakdown);
    } else if (rel > tol(cols_[w], opt) && stagnated(cols_[w], it, rel)) {
      freeze(w, SolveStatus::kStagnated);
    }
  }
}

bool CGEngine::settle(const CGOptions& opt) {
  for (int w = 0; w < kw_; ++w) {
    if (!live_[w]) continue;
    if (col(w).relative_residual <= tol(cols_[w], opt)) {
      freeze(w, SolveStatus::kConverged);
    } else if (col(w).iterations >= opt.max_iterations) {
      freeze(w, SolveStatus::kMaxIterations);
    }
  }
  return nlive_ > 0;
}

void CGEngine::compact(std::initializer_list<Vec*> vecs, std::initializer_list<Cols*> scalars) {
  if (nlive_ == 0 || 2 * nlive_ > kw_) return;
  std::vector<int> keep;
  for (int w = 0; w < kw_; ++w)
    if (live_[w]) keep.push_back(w);
  const auto repack = [&](Vec& v) {
    sparse::compact_columns(v.data(), ops_.n, kw_, keep.data(), nlive_);
  };
  repack(r_);
  repack(bw_);
  repack(xw_);
  for (Vec* v : vecs) repack(*v);
  for (std::size_t j = 0; j < keep.size(); ++j) {
    const auto w = static_cast<std::size_t>(keep[j]);
    for (Cols* s : scalars) (*s)[j] = (*s)[w];
    cols_[j] = cols_[w];
  }
  cols_.resize(keep.size());
  kw_ = nlive_;
  live_.assign(keep.size(), 1);
  ++compactions_;
  if (reg_) reg_->counter("pcg.batched.compactions")->add(1);
}

void CGEngine::run(const CGOptions& opt) {
  const std::vector<int> ran = cols_;
  switch (opt.variant) {
    case CGVariant::kClassic: classic(opt); return;
    case CGVariant::kGropp: gropp(opt); break;
    case CGVariant::kPipelined: pipelined(opt); break;
    default: GEOFEM_CHECK(false, "unknown CG variant");
  }
  // Reordered-arithmetic variants are numerically delicate: a column that
  // breaks down or stalls falls back to the bitwise-reference kClassic on
  // the SAME preconditioner (warm restart from its frozen iterate, shared
  // budget) before any preconditioner-level fallback gets to run.
  std::vector<int> retry;
  for (int c : ran) {
    const SolveStatus st = res_[static_cast<std::size_t>(c)].status;
    if (st != SolveStatus::kBreakdown && st != SolveStatus::kStagnated) continue;
    ++res_[static_cast<std::size_t>(c)].variant_fallbacks;
    retry.push_back(c);
  }
  if (retry.empty()) return;
  select(retry);
  restart(CGStart::kWarm, opt);
  classic(opt);
  for (int c : retry) {
    CGResult& r = res_[static_cast<std::size_t>(c)];
    if (r.status == SolveStatus::kConverged) r.status = SolveStatus::kFellBack;
  }
}

/// Textbook PCG: three blocking reductions per iteration. The operation order
/// is the pre-variant solver's, so kClassic residual histories stay
/// bit-identical to the pre-change baselines.
void CGEngine::classic(const CGOptions& opt) {
  const auto kw = static_cast<std::size_t>(kw_);
  Vec z(len()), p(len_halo()), q(len());
  Cols rho(kw), rho_prev(kw), pq(kw), alpha(kw), neg(kw), beta(kw), rnorm(kw);
  Stagnation stagnated(opt.stagnation_window, k_);
  for (int it = 0; settle(opt); ++it) {
    compact({&p}, {&rho_prev});
    precond(r_, z);
    {
      obs::ScopedSpan s(reg_, "pcg.blas1");
      sum_dot(own(r_), own(z), rho.data());
      // Breakdown: with an SPD preconditioner and r != 0, rho = r.z must be
      // strictly positive; anything else (including NaN) would poison p and
      // run to max_iterations on garbage.
      for (int w = 0; w < kw_; ++w)
        if (live_[w] && !(rho[w] > 0.0)) freeze(w, SolveStatus::kBreakdown);
      if (nlive_ == 0) break;
      if (it == 0) {
        sparse::copy(own(z), own(p));
      } else {
        for (int w = 0; w < kw_; ++w) beta[w] = live_[w] ? rho[w] / rho_prev[w] : 0.0;
        xpby(own(z), beta, own(p));
      }
    }
    rho_prev = rho;  // a frozen column's entry is never read again

    spmv(p, q);
    {
      obs::ScopedSpan s(reg_, "pcg.blas1");
      sum_dot(own(p), own(q), pq.data());
      // Indefinite direction: p.Ap <= 0 means A is not SPD along p and the
      // step length alpha is meaningless.
      for (int w = 0; w < kw_; ++w)
        if (live_[w] && !(pq[w] > 0.0)) freeze(w, SolveStatus::kBreakdown);
      if (nlive_ == 0) break;
      for (int w = 0; w < kw_; ++w) {
        alpha[w] = live_[w] ? rho[w] / pq[w] : 0.0;
        neg[w] = -alpha[w];
      }
      axpy(alpha, own(p), own(x()));
      axpy(neg, own(q), own(r_));
      sum_dot(own(r_), own(r_), rnorm.data());
      for (int w = 0; w < kw_; ++w) rnorm[w] = std::sqrt(rnorm[w]);
    }
    step();
    advance(it, rnorm, stagnated, opt);
  }
}

/// Gropp's two-overlap CG: two reductions per iteration, δ = (p,s) hidden
/// behind q = M⁻¹s and the fused {(r,u), ||r||²} hidden behind w = Au.
void CGEngine::gropp(const CGOptions& opt) {
  const auto kw = static_cast<std::size_t>(kw_);
  Vec u(len_halo()), p(len_halo()), s(len()), q(len()), wv(len());
  Cols gamma(kw), delta(kw), g(2 * kw), alpha(kw), neg(kw), beta(kw), rnorm(kw);
  precond(r_, u);
  sparse::copy(own(u), own(p));
  spmv(p, s);
  sum_dot(own(r_), own(u), gamma.data());

  Stagnation stagnated(opt.stagnation_window, k_);
  for (int it = 0; settle(opt); ++it) {
    compact({&u, &p, &s}, {&gamma});
    for (int w = 0; w < kw_; ++w)
      if (live_[w] && !(gamma[w] > 0.0)) freeze(w, SolveStatus::kBreakdown);
    if (nlive_ == 0) break;
    dot(own(p), own(s), delta.data());
    reduce({delta.data(), static_cast<std::size_t>(kw_)}, [&] {
      obs::ScopedSpan ov(reg_, "pcg.overlap");
      precond(s, q);  // q = M⁻¹ s
    });
    for (int w = 0; w < kw_; ++w)
      if (live_[w] && !(delta[w] > 0.0)) freeze(w, SolveStatus::kBreakdown);
    if (nlive_ == 0) break;
    for (int w = 0; w < kw_; ++w) {
      alpha[w] = live_[w] ? gamma[w] / delta[w] : 0.0;
      neg[w] = -alpha[w];
    }
    axpy(alpha, own(p), own(x()));
    axpy(neg, own(s), own(r_));
    axpy(neg, own(q), own(u));
    dot(own(r_), own(u), g.data());
    dot(own(r_), own(r_), g.data() + kw_);
    reduce({g.data(), 2 * static_cast<std::size_t>(kw_)}, [&] {
      obs::ScopedSpan ov(reg_, "pcg.overlap");
      spmv(u, wv);  // w = A u
    });
    for (int w = 0; w < kw_; ++w) {
      beta[w] = live_[w] ? g[w] / gamma[w] : 0.0;
      gamma[w] = g[w];
      rnorm[w] = std::sqrt(g[kw_ + w]);
    }
    xpby(own(u), beta, own(p));  // p = u + β p
    xpby(own(wv), beta, own(s));  // s = w + β s
    step();
    advance(it, rnorm, stagnated, opt);
  }
}

/// Ghysels–Vanroose pipelined CG: ONE fused reduction per iteration
/// {γ = (r,u), δ = (w,u), ||r||²}, hidden behind both m = M⁻¹w and n = Am.
/// Four extra recurrence vectors (z, q, s, p) trade memory for the removed
/// synchronization; the recurrence residual can drift from the true one
/// (attainable accuracy), which is why breakdown/stagnation here falls back
/// to kClassic rather than straight to a different preconditioner.
void CGEngine::pipelined(const CGOptions& opt) {
  const auto kw = static_cast<std::size_t>(kw_);
  Vec u(len_halo()), wv(len()), mv(len_halo()), nv(len()), z(len()), q(len_halo()), s(len()),
      p(len_halo());
  Cols g(3 * kw), gamma_prev(kw), alpha_prev(kw), alpha(kw), neg(kw), beta(kw), rnorm(kw);
  precond(r_, u);
  spmv(u, wv);

  const std::function<void()> window = [&] {
    obs::ScopedSpan ov(reg_, "pcg.overlap");
    precond(wv, mv);  // m = M⁻¹ w
    spmv(mv, nv);     // n = A m
  };
  // A local sum has nothing to hide, so the window then waits until the loop
  // knows it continues: the last iteration skips one SpMV and one apply.
  const bool hide = static_cast<bool>(ops_.sum);

  Stagnation stagnated(opt.stagnation_window, k_);
  for (int it = 0;; ++it) {
    compact({&u, &wv, &z, &q, &s, &p}, {&gamma_prev, &alpha_prev});
    const auto n3 = static_cast<std::size_t>(kw_);
    dot(own(r_), own(u), g.data());
    dot(own(wv), own(u), g.data() + n3);
    dot(own(r_), own(r_), g.data() + 2 * n3);
    reduce({g.data(), 3 * n3}, hide ? window : std::function<void()>{});
    for (int w = 0; w < kw_; ++w) rnorm[w] = std::sqrt(g[2 * n3 + w]);
    // ||r_it||² arrives with iteration it's reduction: the history entry and
    // the stagnation probe for the previous iteration's update land here.
    if (it == 0) {
      for (int w = 0; w < kw_; ++w)
        col(w).relative_residual = rnorm[w] / bnorm_[static_cast<std::size_t>(cols_[w])];
    } else {
      advance(it - 1, rnorm, stagnated, opt);
    }
    if (!settle(opt)) break;
    if (!hide) window();
    for (int w = 0; w < kw_; ++w) {
      if (!live_[w]) continue;
      const double gamma = g[w], delta = g[n3 + w];
      if (!(gamma > 0.0)) {
        freeze(w, SolveStatus::kBreakdown);
      } else if (it == 0) {
        if (!(delta > 0.0)) {
          freeze(w, SolveStatus::kBreakdown);
        } else {
          alpha[w] = gamma / delta;
        }
      } else {
        beta[w] = gamma / gamma_prev[w];
        // α = γ / (δ − β γ / α_prev): the pipelined recurrence's rearranged
        // p.Ap. A non-positive (or non-finite) denominator is the variant's
        // rounding-induced breakdown mode.
        const double denom = delta - beta[w] * gamma / alpha_prev[w];
        if (!(denom > 0.0) || !std::isfinite(denom)) {
          freeze(w, SolveStatus::kBreakdown);
        } else {
          alpha[w] = gamma / denom;
        }
      }
    }
    if (nlive_ == 0) break;
    for (int w = 0; w < kw_; ++w) {
      if (!live_[w]) alpha[w] = 0.0;
      neg[w] = -alpha[w];
    }
    if (it == 0) {
      sparse::copy(own(nv), own(z));
      sparse::copy(own(mv), own(q));
      sparse::copy(own(wv), own(s));
      sparse::copy(own(u), own(p));
    } else {
      xpby(own(nv), beta, own(z));  // z = n + β z
      xpby(own(mv), beta, own(q));  // q = m + β q
      xpby(own(wv), beta, own(s));  // s = w + β s
      xpby(own(u), beta, own(p));   // p = u + β p
    }
    axpy(alpha, own(p), own(x()));
    axpy(neg, own(s), own(r_));
    axpy(neg, own(q), own(u));
    axpy(neg, own(z), own(wv));
    std::copy_n(g.begin(), kw_, gamma_prev.begin());
    alpha_prev = alpha;
    step();

    // Periodic residual replacement: rebuild every recurrence vector from its
    // definition. No reductions, so the single-reduction overlap structure
    // (and the lockstep of a distributed solve) is untouched; without it the
    // recurrence residual plateaus well above classic's attainable accuracy
    // on ill-conditioned systems and tight tolerances force the kClassic
    // fallback.
    const int replace = opt.pipeline_replace_interval;
    if (replace > 0 && (it + 1) % replace == 0) {
      residual();
      precond(r_, u);
      spmv(u, wv);
      spmv(p, s);
      precond(s, q);
      spmv(q, z);
    }
  }
}

void count_solve(obs::Registry& reg, const CGResult& res) {
  std::string slug = to_string(res.status);
  for (char& ch : slug)
    if (ch == ' ') ch = '_';
  reg.counter("pcg.status." + slug)->add(1);
  reg.counter("pcg.iterations")->add(static_cast<std::uint64_t>(res.iterations));
  reg.counter("pcg.solves")->add(1);
}

CGResult pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
             std::span<double> x, const CGOptions& opt) {
  CGResult res;
  util::Timer timer;

  // Telemetry is opt-in: reg is null unless the caller attached a registry to
  // this thread (obs::Attach), in which case each phase of every iteration
  // becomes a trace span and the final counts land as registry metrics.
  obs::Registry* reg = obs::current();
  obs::ScopedSpan solve_span(reg, "pcg.solve");

  CGEngine cg({.n = b.size(),
               .halo = 0,
               .apply_a = amul,
               .apply_m = [&m](std::span<const double> in, std::span<double> out,
                               util::FlopCounter* fc, util::LoopStats* ls) {
                 m.apply(in, out, fc, ls);
               },
               .sum = nullptr},  // one rank: the partials are the sums
              b, x, {&res, 1});
  cg.start(CGStart::kWarm, opt);
  cg.run(opt);
  res.solve_seconds = timer.seconds();

  if (reg) {
    if (res.variant_fallbacks > 0) reg->counter("pcg.fallback.variant")->add(1);
    count_solve(*reg, res);
    reg->gauge("pcg.relative_residual")->set(res.relative_residual);
    reg->gauge("pcg.solve_seconds")->set(res.solve_seconds);
    reg->gauge("solver.variant")->set(static_cast<double>(opt.variant));
    reg->absorb("pcg", res.flops);
    reg->absorb("pcg", res.loops);
  }
  return res;
}

CGResult pcg(const sparse::BlockCSR& a, const precond::Preconditioner& m,
             std::span<const double> b, std::span<double> x, const CGOptions& opt) {
  return pcg(
      [&a](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
           util::LoopStats* ls) { a.spmv(in, out, fc, ls); },
      m, b, x, opt);
}

}  // namespace geofem::solver
