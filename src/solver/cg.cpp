#include "solver/cg.hpp"

#include <cmath>

#include "obs/span.hpp"
#include "simd/simd.hpp"
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

/// Stagnation probe: slot it % W holds the relative residual from W
/// iterations ago by the time iteration `it` reads it.
class CGEngine::Stagnation {
 public:
  explicit Stagnation(int window) : ring_(window > 0 ? static_cast<std::size_t>(window) : 0) {}

  bool operator()(int it, double rel) {
    if (ring_.empty()) return false;
    const auto i = static_cast<std::size_t>(it);
    const std::size_t slot = i % ring_.size();
    if (i >= ring_.size() && rel > 0.99 * ring_[slot]) return true;
    ring_[slot] = rel;
    return false;
  }

 private:
  std::vector<double> ring_;
};

CGEngine::CGEngine(CGOps ops, std::span<const double> b, std::span<double> x, CGResult& res)
    : ops_(std::move(ops)), b_(b), x_(x), res_(res), reg_(obs::current()), r_(ops_.n) {
  GEOFEM_CHECK(b.size() == ops_.n && x.size() == ops_.n + ops_.halo, "pcg size mismatch");
  bnorm_ = std::sqrt(sum_dot(b_, b_));
  GEOFEM_CHECK(bnorm_ > 0.0, "pcg: zero right-hand side");
}

void CGEngine::spmv(std::span<double> v, std::span<double> out) {
  obs::ScopedSpan s(reg_, "pcg.spmv");
  ops_.apply_a(v, own(out), &res_.flops, &res_.loops);
}

void CGEngine::precond(std::span<const double> in, std::span<double> out) {
  obs::ScopedSpan s(reg_, "pcg.precond");
  ops_.apply_m(in.first(ops_.n), own(out), &res_.flops, &res_.loops);
}

void CGEngine::reduce(std::span<double> v, const std::function<void()>& overlap) {
  if (ops_.sum) {
    ops_.sum(v, overlap);
  } else if (overlap) {
    overlap();
  }
}

double CGEngine::sum_dot(std::span<const double> a, std::span<const double> b) {
  double d = sparse::dot(a, b, &res_.flops);
  reduce({&d, 1});
  return d;
}

void CGEngine::residual() {
  spmv(x_, r_);
  for (std::size_t i = 0; i < ops_.n; ++i) r_[i] = b_[i] - r_[i];
  res_.flops.blas1 += ops_.n;
}

void CGEngine::start(CGStart start, const CGOptions& opt) {
  double rnorm = bnorm_;
  if (start == CGStart::kCold) {
    sparse::fill(x_, 0.0);
    sparse::copy(b_, r_);
  } else {
    residual();
    rnorm = std::sqrt(sum_dot(r_, r_));
  }
  res_.relative_residual = rnorm / bnorm_;
  if (opt.record_residuals) res_.residual_history.push_back(res_.relative_residual);
}

bool CGEngine::advance(int it, double rnorm, Stagnation& stagnated, const CGOptions& opt) {
  const double rel = rnorm / bnorm_;
  res_.relative_residual = rel;
  if (opt.record_residuals) res_.residual_history.push_back(rel);
  if (!std::isfinite(rnorm)) {
    res_.status = SolveStatus::kBreakdown;
  } else if (stagnated(it, rel)) {
    res_.status = SolveStatus::kStagnated;
  } else {
    return true;
  }
  return false;
}

void CGEngine::finish(const CGOptions& opt) {
  if (res_.relative_residual <= opt.tolerance) res_.status = SolveStatus::kConverged;
}

void CGEngine::run(const CGOptions& opt) {
  switch (opt.variant) {
    case CGVariant::kClassic: classic(opt); return;
    case CGVariant::kGropp: gropp(opt); break;
    case CGVariant::kPipelined: pipelined(opt); break;
    default: GEOFEM_CHECK(false, "unknown CG variant");
  }
  // Reordered-arithmetic variants are numerically delicate: a breakdown or
  // stall falls back to the bitwise-reference kClassic on the SAME
  // preconditioner (warm restart from the partial iterate, shared budget)
  // before any preconditioner-level fallback gets to run.
  if (res_.status != SolveStatus::kBreakdown && res_.status != SolveStatus::kStagnated) return;
  ++res_.variant_fallbacks;
  start(CGStart::kWarm, opt);
  classic(opt);
  if (res_.status == SolveStatus::kConverged) res_.status = SolveStatus::kFellBack;
}

/// Textbook PCG: three blocking reductions per iteration. The operation order
/// is the pre-variant solver's, so kClassic residual histories stay
/// bit-identical to the pre-change baselines.
void CGEngine::classic(const CGOptions& opt) {
  simd::aligned_vector<double> z(ops_.n), p(ops_.n + ops_.halo), q(ops_.n);
  auto* fc = &res_.flops;
  Stagnation stagnated(opt.stagnation_window);
  res_.status = SolveStatus::kMaxIterations;
  double rho_prev = 0.0;
  for (int it = 0;
       res_.iterations < opt.max_iterations && res_.relative_residual > opt.tolerance; ++it) {
    precond(r_, z);
    double rho = 0.0, rnorm = 0.0;
    {
      obs::ScopedSpan s(reg_, "pcg.blas1");
      rho = sum_dot(r_, z);
      // Breakdown: with an SPD preconditioner and r != 0, rho = r.z must be
      // strictly positive; anything else (including NaN) would poison p and
      // run to max_iterations on garbage.
      if (!(rho > 0.0)) {
        res_.status = SolveStatus::kBreakdown;
        break;
      }
      if (it == 0) {
        sparse::copy(z, own(p));
      } else {
        sparse::xpby(z, rho / rho_prev, own(p), fc);
      }
    }
    rho_prev = rho;

    spmv(p, q);
    {
      obs::ScopedSpan s(reg_, "pcg.blas1");
      const double pq = sum_dot(own(p), q);
      // Indefinite direction: p.Ap <= 0 means A is not SPD along p and the
      // step length alpha is meaningless.
      if (!(pq > 0.0)) {
        res_.status = SolveStatus::kBreakdown;
        break;
      }
      const double alpha = rho / pq;
      sparse::axpy(alpha, own(p), own(x_), fc);
      sparse::axpy(-alpha, q, r_, fc);
      rnorm = std::sqrt(sum_dot(r_, r_));
    }
    ++res_.iterations;
    if (!advance(it, rnorm, stagnated, opt)) break;
  }
  finish(opt);
}

/// Gropp's two-overlap CG: two reductions per iteration, δ = (p,s) hidden
/// behind q = M⁻¹s and the fused {(r,u), ||r||²} hidden behind w = Au.
void CGEngine::gropp(const CGOptions& opt) {
  const std::size_t nh = ops_.n + ops_.halo;
  simd::aligned_vector<double> u(nh), p(nh), s(ops_.n), q(ops_.n), w(ops_.n);
  auto* fc = &res_.flops;
  precond(r_, u);
  sparse::copy(own(u), own(p));
  spmv(p, s);
  double gamma = sum_dot(r_, own(u));

  Stagnation stagnated(opt.stagnation_window);
  res_.status = SolveStatus::kMaxIterations;
  for (int it = 0;
       res_.iterations < opt.max_iterations && res_.relative_residual > opt.tolerance; ++it) {
    if (!(gamma > 0.0)) {
      res_.status = SolveStatus::kBreakdown;
      break;
    }
    double delta = sparse::dot(own(p), s, fc);
    reduce({&delta, 1}, [&] {
      obs::ScopedSpan ov(reg_, "pcg.overlap");
      precond(s, q);  // q = M⁻¹ s
    });
    if (!(delta > 0.0)) {
      res_.status = SolveStatus::kBreakdown;
      break;
    }
    const double alpha = gamma / delta;
    sparse::axpy(alpha, own(p), own(x_), fc);
    sparse::axpy(-alpha, s, r_, fc);
    sparse::axpy(-alpha, q, own(u), fc);
    double g[2] = {sparse::dot(r_, own(u), fc), sparse::dot(r_, r_, fc)};
    reduce(g, [&] {
      obs::ScopedSpan ov(reg_, "pcg.overlap");
      spmv(u, w);  // w = A u
    });
    const double beta = g[0] / gamma;
    sparse::xpby(own(u), beta, own(p), fc);  // p = u + β p
    sparse::xpby(w, beta, s, fc);            // s = w + β s
    gamma = g[0];
    ++res_.iterations;
    if (!advance(it, std::sqrt(g[1]), stagnated, opt)) break;
  }
  finish(opt);
}

/// Ghysels–Vanroose pipelined CG: ONE fused reduction per iteration
/// {γ = (r,u), δ = (w,u), ||r||²}, hidden behind both m = M⁻¹w and n = Am.
/// Four extra recurrence vectors (z, q, s, p) trade memory for the removed
/// synchronization; the recurrence residual can drift from the true one
/// (attainable accuracy), which is why breakdown/stagnation here falls back
/// to kClassic rather than straight to a different preconditioner.
void CGEngine::pipelined(const CGOptions& opt) {
  const std::size_t nh = ops_.n + ops_.halo;
  simd::aligned_vector<double> u(nh), w(ops_.n), mv(nh), nv(ops_.n), z(ops_.n), q(nh),
      s(ops_.n), p(nh);
  auto* fc = &res_.flops;
  precond(r_, u);
  spmv(u, w);

  const std::function<void()> window = [&] {
    obs::ScopedSpan ov(reg_, "pcg.overlap");
    precond(w, mv);  // m = M⁻¹ w
    spmv(mv, nv);    // n = A m
  };
  // A local sum has nothing to hide, so the window then waits until the loop
  // knows it continues: the last iteration skips one SpMV and one apply.
  const bool hide = static_cast<bool>(ops_.sum);

  Stagnation stagnated(opt.stagnation_window);
  res_.status = SolveStatus::kMaxIterations;
  double gamma_prev = 0.0, alpha_prev = 0.0;
  for (int it = 0;; ++it) {
    double g[3] = {sparse::dot(r_, own(u), fc), sparse::dot(w, own(u), fc),
                   sparse::dot(r_, r_, fc)};
    if (hide) {
      reduce(g, window);
    } else {
      reduce(g);
    }
    const double gamma = g[0];
    const double delta = g[1];
    // ||r_it||² arrives with iteration it's reduction: the history entry and
    // the stagnation probe for the previous iteration's update land here.
    if (it == 0) {
      res_.relative_residual = std::sqrt(g[2]) / bnorm_;
    } else if (!advance(it - 1, std::sqrt(g[2]), stagnated, opt)) {
      break;
    }
    if (res_.relative_residual <= opt.tolerance) {
      res_.status = SolveStatus::kConverged;
      break;
    }
    if (res_.iterations >= opt.max_iterations) break;
    if (!hide) window();
    if (!(gamma > 0.0)) {
      res_.status = SolveStatus::kBreakdown;
      break;
    }
    double alpha = 0.0, beta = 0.0;
    if (it == 0) {
      if (!(delta > 0.0)) {
        res_.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / delta;
    } else {
      beta = gamma / gamma_prev;
      // α = γ / (δ − β γ / α_prev): the pipelined recurrence's rearranged
      // p.Ap. A non-positive (or non-finite) denominator is the variant's
      // rounding-induced breakdown mode.
      const double denom = delta - beta * gamma / alpha_prev;
      if (!(denom > 0.0) || !std::isfinite(denom)) {
        res_.status = SolveStatus::kBreakdown;
        break;
      }
      alpha = gamma / denom;
    }
    if (it == 0) {
      sparse::copy(nv, z);
      sparse::copy(own(mv), own(q));
      sparse::copy(w, s);
      sparse::copy(own(u), own(p));
    } else {
      sparse::xpby(nv, beta, z, fc);             // z = n + β z
      sparse::xpby(own(mv), beta, own(q), fc);  // q = m + β q
      sparse::xpby(w, beta, s, fc);              // s = w + β s
      sparse::xpby(own(u), beta, own(p), fc);   // p = u + β p
    }
    sparse::axpy(alpha, own(p), own(x_), fc);
    sparse::axpy(-alpha, s, r_, fc);
    sparse::axpy(-alpha, own(q), own(u), fc);
    sparse::axpy(-alpha, z, w, fc);
    gamma_prev = gamma;
    alpha_prev = alpha;
    ++res_.iterations;

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
      spmv(u, w);
      spmv(p, s);
      precond(s, q);
      spmv(q, z);
    }
  }
  finish(opt);
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
              b, x, res);
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
