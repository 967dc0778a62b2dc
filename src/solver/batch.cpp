#include "solver/batch.hpp"

#include <utility>

#include "obs/span.hpp"
#include "simd/multirhs.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::solver {

BatchedCGResult pcg_batched(const MatVec& amul, const MatVecMulti& amul_multi,
                            const precond::Preconditioner& m, std::span<const double> b,
                            std::span<double> x, int k, const BatchedCGOptions& opt) {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "pcg_batched: bad column count");
  GEOFEM_CHECK(b.size() == x.size() && b.size() % static_cast<std::size_t>(k) == 0,
               "pcg_batched: size mismatch");
  GEOFEM_CHECK(opt.tolerances.empty() || opt.tolerances.size() == static_cast<std::size_t>(k),
               "pcg_batched: tolerances must be empty or one per column");

  BatchedCGResult res;

  // Batch-of-1 is the classic solver, verbatim: bit-identical solution and
  // residual history to a plain single-RHS pcg() call.
  if (k == 1) {
    CGOptions o = opt.cg;
    if (!opt.tolerances.empty()) o.tolerance = opt.tolerances[0];
    CGResult one = pcg(amul, m, b, x, o);
    res.iterations = one.iterations;
    res.solve_seconds = std::exchange(one.solve_seconds, 0.0);
    res.flops = std::exchange(one.flops, {});
    res.loops = std::exchange(one.loops, {});
    res.columns.push_back(std::move(one));
    return res;
  }

  util::Timer timer;
  obs::Registry* reg = obs::current();
  obs::ScopedSpan solve_span(reg, "pcg.batched.solve");
  res.columns.resize(static_cast<std::size_t>(k));
  CGEngine cg({.n = b.size() / static_cast<std::size_t>(k),
               .halo = 0,
               .apply_a = amul,
               .apply_m = [&m](std::span<const double> in, std::span<double> out,
                               util::FlopCounter* fc, util::LoopStats* ls) {
                 m.apply(in, out, fc, ls);
               },
               .apply_a_multi = amul_multi,
               .apply_m_multi = [&m](std::span<const double> in, std::span<double> out, int kk,
                                     util::FlopCounter* fc, util::LoopStats* ls) {
                 m.apply_multi(in, out, kk, fc, ls);
               },
               .sum = nullptr},
              b, x, res.columns, opt.tolerances);
  cg.start(CGStart::kWarm, opt.cg);
  cg.run(opt.cg);
  res.iterations = cg.iterations();
  res.compactions = cg.compactions();
  res.flops = std::exchange(res.columns[0].flops, {});
  res.loops = std::exchange(res.columns[0].loops, {});
  res.solve_seconds = timer.seconds();

  if (reg) {
    reg->counter("pcg.batched.solves")->add(1);
    reg->counter("pcg.batched.columns")->add(static_cast<std::uint64_t>(k));
    reg->gauge("pcg.batched.width")->set(static_cast<double>(k));
    reg->gauge("pcg.batched.solve_seconds")->set(res.solve_seconds);
    for (const auto& col : res.columns) {
      if (col.variant_fallbacks > 0) reg->counter("pcg.fallback.variant")->add(1);
      count_solve(*reg, col);
    }
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
