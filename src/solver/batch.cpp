#include "solver/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/span.hpp"
#include "simd/simd.hpp"
#include "sparse/multivec.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::solver {

namespace {

/// Working state of the live batch. Column arrays are indexed by the CURRENT
/// (compacted) position; col_map translates back to the caller's order.
struct BatchState {
  int kw = 0;  ///< current width
  simd::aligned_vector<double> r, z, p, q, xw, bw;
  std::vector<double> bnorm, rnorm, rho_prev, tol;
  std::vector<int> col_map;
  std::vector<unsigned char> active;
};

}  // namespace

BatchedCGResult pcg_batched(const MatVec& amul, const MatVecMulti& amul_multi,
                            const precond::Preconditioner& m, std::span<const double> b,
                            std::span<double> x, int k, const BatchedCGOptions& opt) {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "pcg_batched: bad column count");
  GEOFEM_CHECK(b.size() == x.size() && b.size() % static_cast<std::size_t>(k) == 0,
               "pcg_batched: size mismatch");
  GEOFEM_CHECK(opt.tolerances.empty() || opt.tolerances.size() == static_cast<std::size_t>(k),
               "pcg_batched: tolerances must be empty or one per column");

  BatchedCGResult res;
  res.columns.resize(static_cast<std::size_t>(k));

  // Batch-of-1 is the classic solver, verbatim: bit-identical solution and
  // residual history to a plain single-RHS pcg() call.
  if (k == 1) {
    CGOptions o = opt.cg;
    if (!opt.tolerances.empty()) o.tolerance = opt.tolerances[0];
    CGResult one = pcg(amul, m, b, x, o);
    res.iterations = one.iterations;
    res.solve_seconds = one.solve_seconds;
    res.flops = one.flops;
    res.loops = one.loops;
    res.columns[0].status = one.status;
    res.columns[0].iterations = one.iterations;
    res.columns[0].relative_residual = one.relative_residual;
    res.columns[0].residual_history = std::move(one.residual_history);
    res.columns[0].variant_fallbacks = one.variant_fallbacks;
    return res;
  }

  GEOFEM_CHECK(opt.cg.variant == CGVariant::kClassic,
               "pcg_batched: k > 1 supports CGVariant::kClassic only");

  const std::size_t n = b.size() / static_cast<std::size_t>(k);
  util::Timer timer;
  obs::Registry* reg = obs::current();
  obs::ScopedSpan solve_span(reg, "pcg.batched.solve");
  auto* fc = &res.flops;
  auto* ls = &res.loops;

  BatchState st;
  st.kw = k;
  st.r.resize(b.size());
  st.z.resize(b.size());
  st.p.resize(b.size());
  st.q.resize(b.size());
  st.xw.assign(x.begin(), x.end());
  st.bw.assign(b.begin(), b.end());
  st.bnorm.resize(static_cast<std::size_t>(k));
  st.rnorm.resize(static_cast<std::size_t>(k));
  st.rho_prev.assign(static_cast<std::size_t>(k), 0.0);
  st.tol.resize(static_cast<std::size_t>(k));
  st.col_map.resize(static_cast<std::size_t>(k));
  st.active.assign(static_cast<std::size_t>(k), 1);
  for (int c = 0; c < k; ++c) {
    st.col_map[static_cast<std::size_t>(c)] = c;
    st.tol[static_cast<std::size_t>(c)] =
        opt.tolerances.empty() ? opt.cg.tolerance : opt.tolerances[static_cast<std::size_t>(c)];
  }

  // r = b - A x (one SpMM for all columns).
  {
    obs::ScopedSpan s(reg, "pcg.spmm");
    amul_multi(std::span<const double>(st.xw.data(), st.xw.size()),
               std::span<double>(st.r.data(), st.r.size()), st.kw, fc, ls);
  }
  for (std::size_t i = 0; i < st.r.size(); ++i) st.r[i] = st.bw[i] - st.r[i];
  fc->blas1 += st.r.size();

  sparse::norm2_multi(st.bw.data(), n, st.kw, st.bnorm.data(), fc);
  for (int c = 0; c < k; ++c)
    GEOFEM_CHECK(st.bnorm[static_cast<std::size_t>(c)] > 0.0, "pcg: zero right-hand side");
  sparse::norm2_multi(st.r.data(), n, st.kw, st.rnorm.data(), fc);
  if (opt.cg.record_residuals)
    for (int c = 0; c < st.kw; ++c)
      res.columns[static_cast<std::size_t>(st.col_map[static_cast<std::size_t>(c)])]
          .residual_history.push_back(st.rnorm[static_cast<std::size_t>(c)] /
                                      st.bnorm[static_cast<std::size_t>(c)]);

  // Freeze column `c` (current position) with `status`: emit its solution
  // into the caller's x at its original position and record its outcome. The
  // masked updates below never touch a frozen column again.
  int n_active = st.kw;
  std::vector<double> colbuf(n);
  auto freeze = [&](int c, SolveStatus status, int iters) {
    const auto cc = static_cast<std::size_t>(c);
    const int orig = st.col_map[cc];
    st.active[cc] = 0;
    --n_active;
    sparse::gather_column(st.xw.data(), n, st.kw, c, colbuf.data());
    sparse::scatter_column(colbuf.data(), n, k, orig, x.data());
    auto& col = res.columns[static_cast<std::size_t>(orig)];
    col.status = status;
    col.iterations = iters;
    col.relative_residual = st.rnorm[cc] / st.bnorm[cc];
  };

  std::vector<double> rho(static_cast<std::size_t>(k)), pq(static_cast<std::size_t>(k)),
      alpha(static_cast<std::size_t>(k)), neg_alpha(static_cast<std::size_t>(k)),
      beta(static_cast<std::size_t>(k));
  std::vector<int> iters(static_cast<std::size_t>(k), 0);
  std::vector<int> keep(static_cast<std::size_t>(k));

  // Columns already at tolerance before the first iteration.
  for (int c = st.kw - 1; c >= 0; --c)
    if (st.rnorm[static_cast<std::size_t>(c)] / st.bnorm[static_cast<std::size_t>(c)] <=
        st.tol[static_cast<std::size_t>(c)])
      freeze(c, SolveStatus::kConverged, 0);

  for (int it = 0; n_active > 0 && res.iterations < opt.cg.max_iterations; ++it) {
    // A batch compacted to one column has the single-vector layout, so it
    // runs the single-RHS kernels, which beat their k = 1 multi-RHS twins.
    const std::size_t len = n * static_cast<std::size_t>(st.kw);
    {
      obs::ScopedSpan s(reg, "pcg.precond");
      const std::span<const double> in(st.r.data(), len);
      const std::span<double> out(st.z.data(), len);
      if (st.kw == 1)
        m.apply(in, out, fc, ls);
      else
        m.apply_multi(in, out, st.kw, fc, ls);
    }
    sparse::dot_multi(st.r.data(), st.z.data(), n, st.kw, rho.data(), fc);
    for (int c = st.kw - 1; c >= 0; --c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!st.active[cc]) continue;
      // Same breakdown test as the single-RHS solver: with an SPD
      // preconditioner and r != 0, rho must be strictly positive.
      if (!(rho[cc] > 0.0)) freeze(c, SolveStatus::kBreakdown, iters[cc]);
    }
    if (n_active == 0) break;

    if (it == 0) {
      std::memcpy(st.p.data(), st.z.data(), len * sizeof(double));
    } else {
      for (int c = 0; c < st.kw; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        beta[cc] = st.active[cc] ? rho[cc] / st.rho_prev[cc] : 0.0;
      }
      sparse::xpby_multi(beta.data(), st.active.data(), st.z.data(), st.p.data(), n, st.kw, fc);
    }
    for (int c = 0; c < st.kw; ++c)
      if (st.active[static_cast<std::size_t>(c)])
        st.rho_prev[static_cast<std::size_t>(c)] = rho[static_cast<std::size_t>(c)];

    {
      obs::ScopedSpan s(reg, "pcg.spmm");
      const std::span<const double> in(st.p.data(), len);
      const std::span<double> out(st.q.data(), len);
      if (st.kw == 1)
        amul(in, out, fc, ls);
      else
        amul_multi(in, out, st.kw, fc, ls);
    }
    sparse::dot_multi(st.p.data(), st.q.data(), n, st.kw, pq.data(), fc);
    for (int c = st.kw - 1; c >= 0; --c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!st.active[cc]) continue;
      // Indefinite direction: p.Ap <= 0 means alpha is meaningless.
      if (!(pq[cc] > 0.0)) freeze(c, SolveStatus::kBreakdown, iters[cc]);
    }
    if (n_active == 0) break;

    for (int c = 0; c < st.kw; ++c) {
      const auto cc = static_cast<std::size_t>(c);
      alpha[cc] = st.active[cc] ? rho[cc] / pq[cc] : 0.0;
      neg_alpha[cc] = -alpha[cc];
    }
    sparse::axpy_multi(alpha.data(), st.active.data(), st.p.data(), st.xw.data(), n, st.kw, fc);
    sparse::axpy_multi(neg_alpha.data(), st.active.data(), st.q.data(), st.r.data(), n, st.kw,
                       fc);
    sparse::norm2_multi(st.r.data(), n, st.kw, st.rnorm.data(), fc);
    ++res.iterations;

    for (int c = st.kw - 1; c >= 0; --c) {
      const auto cc = static_cast<std::size_t>(c);
      if (!st.active[cc]) continue;
      ++iters[cc];
      const double rel = st.rnorm[cc] / st.bnorm[cc];
      if (opt.cg.record_residuals)
        res.columns[static_cast<std::size_t>(st.col_map[cc])].residual_history.push_back(rel);
      if (!std::isfinite(st.rnorm[cc])) {
        freeze(c, SolveStatus::kBreakdown, iters[cc]);
      } else if (rel <= st.tol[cc]) {
        freeze(c, SolveStatus::kConverged, iters[cc]);
      }
    }

    // Compact: repack live columns into a narrower interleaved stride so the
    // shared kernels stop streaming frozen lanes.
    if (n_active > 0 && n_active < st.kw && opt.compact_threshold > 0.0 &&
        static_cast<double>(n_active) <= opt.compact_threshold * static_cast<double>(st.kw)) {
      int kn = 0;
      for (int c = 0; c < st.kw; ++c)
        if (st.active[static_cast<std::size_t>(c)]) keep[static_cast<std::size_t>(kn++)] = c;
      sparse::compact_columns(st.r.data(), n, st.kw, keep.data(), kn);
      sparse::compact_columns(st.p.data(), n, st.kw, keep.data(), kn);
      sparse::compact_columns(st.xw.data(), n, st.kw, keep.data(), kn);
      sparse::compact_columns(st.bw.data(), n, st.kw, keep.data(), kn);
      for (int c = 0; c < kn; ++c) {
        const auto cc = static_cast<std::size_t>(c);
        const auto oc = static_cast<std::size_t>(keep[cc]);
        st.col_map[cc] = st.col_map[oc];
        st.bnorm[cc] = st.bnorm[oc];
        st.rnorm[cc] = st.rnorm[oc];
        st.rho_prev[cc] = st.rho_prev[oc];
        st.tol[cc] = st.tol[oc];
        iters[cc] = iters[oc];
      }
      st.kw = kn;
      std::fill(st.active.begin(), st.active.begin() + kn, static_cast<unsigned char>(1));
      ++res.compactions;
      if (reg) reg->counter("pcg.batched.compactions")->add(1);
    }
  }

  // Budget exhausted: the survivors report kMaxIterations, like the
  // single-RHS solver.
  for (int c = st.kw - 1; c >= 0; --c)
    if (st.active[static_cast<std::size_t>(c)])
      freeze(c, SolveStatus::kMaxIterations, iters[static_cast<std::size_t>(c)]);

  res.solve_seconds = timer.seconds();

  if (reg) {
    reg->counter("pcg.batched.solves")->add(1);
    reg->counter("pcg.batched.columns")->add(static_cast<std::uint64_t>(k));
    reg->gauge("pcg.batched.width")->set(static_cast<double>(k));
    reg->gauge("pcg.batched.solve_seconds")->set(res.solve_seconds);
    for (const auto& col : res.columns) count_solve(*reg, col);
    reg->absorb("pcg", res.flops);
    reg->absorb("pcg", res.loops);
  }
  return res;
}

BatchedCGResult pcg_batched(const sparse::BlockCSR& a, const precond::Preconditioner& m,
                            std::span<const double> b, std::span<double> x, int k,
                            const BatchedCGOptions& opt) {
  return pcg_batched(
      [&a](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
           util::LoopStats* ls) { a.spmv(in, out, fc, ls); },
      [&a](std::span<const double> in, std::span<double> out, int kk, util::FlopCounter* fc,
           util::LoopStats* ls) { a.spmm(in, out, kk, fc, ls); },
      m, b, x, k, opt);
}

}  // namespace geofem::solver
