#pragma once

#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "precond/preconditioner.hpp"
#include "simd/simd.hpp"
#include "sparse/block_csr.hpp"
#include "util/flops.hpp"
#include "util/loop_stats.hpp"

namespace geofem::obs {
class Registry;
}  // namespace geofem::obs

namespace geofem::solver {

/// Arithmetic variant of preconditioned CG (DESIGN.md §5j). All three solve
/// the same system with the same preconditioner; they differ in how many
/// global dot-product reductions each iteration needs and what computation
/// those reductions can hide behind:
///   kClassic   — textbook PCG: 3 blocking reductions/iteration (rho, p.Ap,
///                ||r||), none overlapped. Bit-identical to the pre-variant
///                solver; the reference for equivalence tests.
///   kGropp     — Gropp's two-overlap CG: 2 reductions/iteration, one hidden
///                behind the preconditioner application, one behind the SpMV.
///   kPipelined — Ghysels–Vanroose pipelined CG: 1 fused reduction/iteration
///                (rho, w.u, ||r||² in one payload) hidden behind *both* the
///                preconditioner application and the SpMV, at the cost of 4
///                extra recurrence vectors and slightly reduced attainable
///                accuracy.
/// Reordered arithmetic means Gropp/pipelined residual histories are NOT
/// bit-identical to classic (iteration parity is tested instead), but each
/// variant is itself deterministic across thread counts and overlap settings,
/// and serial and 1-domain distributed solves run the same CGEngine bit for
/// bit.
enum class CGVariant { kClassic = 0, kGropp = 1, kPipelined = 2 };

[[nodiscard]] std::string to_string(CGVariant v);

struct CGOptions {
  double tolerance = 1e-8;  ///< on ||r||_2 / ||b||_2, the paper's epsilon
  int max_iterations = 20000;
  bool record_residuals = false;
  /// Stagnation detector: declare kStagnated when the relative residual at
  /// iteration `it` is > 0.99x its value `stagnation_window` iterations ago.
  /// 0 disables the check (default), leaving iteration counts untouched.
  int stagnation_window = 0;
  /// Communication-hiding variant. kClassic (default) keeps today's exact
  /// arithmetic; a non-classic variant that hits breakdown or stagnation
  /// falls back to kClassic on the same preconditioner (warm restart, shared
  /// iteration budget) before any preconditioner-level fallback is consulted,
  /// and reports SolveStatus::kFellBack when the classic retry converges.
  CGVariant variant = CGVariant::kClassic;
  /// kPipelined only: every this-many iterations, recompute the recurrence
  /// vectors from their definitions (r = b - Ax, u = M^-1 r, w = Au, s = Ap,
  /// q = M^-1 s, z = Aq — Ghysels–Vanroose residual replacement). The extra
  /// recurrences drift from their true values and plateau the recurrence
  /// residual ~2 digits above classic's attainable accuracy; replacement
  /// resets the drift for ~20% extra SpMV work at the default (4 SpMV +
  /// 2 preconditioner applies per replacement vs 1+1 per iteration). No
  /// global reductions are involved, so the overlap structure is unchanged.
  /// 0 disables (plateaus then falls back to kClassic at tight tolerances).
  int pipeline_replace_interval = 20;
};

struct CGResult {
  SolveStatus status = SolveStatus::kMaxIterations;
  int iterations = 0;
  double relative_residual = 0.0;
  double solve_seconds = 0.0;
  util::FlopCounter flops;
  util::LoopStats loops;
  std::vector<double> residual_history;  ///< if record_residuals
  /// 1 when a Gropp/pipelined attempt broke down or stagnated and the
  /// automatic kClassic retry ran (whether or not it then converged).
  int variant_fallbacks = 0;

  [[nodiscard]] bool converged() const { return ok(status); }
};

/// y = A x hook; implementations forward to BlockCSR::spmv or DJDSMatrix::spmv
/// (with permuted vectors).
using MatVec = std::function<void(std::span<const double>, std::span<double>,
                                  util::FlopCounter*, util::LoopStats*)>;

/// Y = A X on k interleaved columns (value(dof i, column c) = X[i*k + c]);
/// implementations forward to BlockCSR::spmm / DJDSMatrix::spmm or
/// Preconditioner::apply_multi.
using MatVecMulti = std::function<void(std::span<const double>, std::span<double>, int,
                                       util::FlopCounter*, util::LoopStats*)>;

/// Where a CGEngine run starts.
enum class CGStart {
  kWarm,  ///< r = b - A x from the current x (one matvec)
  kCold,  ///< x = 0 and r = b, without a matvec
};

/// The operations the CG engine is bound to (DESIGN.md §5j). pcg() binds a
/// matvec and a preconditioner and leaves `sum` empty; pcg_batched also binds
/// their multi-column forms; dist::solve_distributed binds its
/// halo-overlapped matvec, its coarse-aware preconditioner and Comm's
/// allreduces.
struct CGOps {
  std::size_t n = 0;     ///< owned entries of every column: the BLAS-1 length
  std::size_t halo = 0;  ///< extra trailing slots of every apply_a input (one column only)
  /// out = A v, where v has n + halo entries and apply_a may fill the halo
  /// slots (a halo exchange) before multiplying.
  std::function<void(std::span<double> v, std::span<double> out, util::FlopCounter*,
                     util::LoopStats*)>
      apply_a;
  /// out = M⁻¹ in.
  std::function<void(std::span<const double> in, std::span<double> out, util::FlopCounter*,
                     util::LoopStats*)>
      apply_m;
  /// out = A v and out = M⁻¹ in on k >= 2 interleaved columns; unused (and
  /// may be left empty) while at most one column is live.
  MatVecMulti apply_a_multi{};
  MatVecMulti apply_m_multi{};
  /// Sums the partial dot products in `v` across ranks, in place. A non-empty
  /// `overlap` is work to run while the sums are in flight (split phase); an
  /// empty one asks for a blocking sum. Left empty, the partials already are
  /// the sums (one rank): nothing is summed and nothing is hidden.
  std::function<void(std::span<double> v, const std::function<void()>& overlap)> sum;
};

/// One preconditioned CG engine for one or k right-hand sides, serial and
/// distributed (DESIGN.md §5j): the three variants, the per-column
/// stagnation probe and the variant -> kClassic retry, written once against
/// CGOps. Each column carries its own ρ, α, β, γ, δ and ||r||. A column that
/// converges, breaks down, stagnates or spends the budget is frozen: its
/// iterate goes to the caller's x at that moment and no later update touches
/// it. Once at most half of the working columns are live, the live ones are
/// repacked into a narrower interleaved stride. A one-column working set runs
/// the single-RHS kernels (SpMV, Preconditioner::apply, sparse::dot/axpy/
/// xpby) in place; a wider one runs the multi-column kernels. Every exit
/// decision derives from summed scalars, so all ranks of a distributed solve
/// leave each loop together. The pcg.spmv (pcg.spmm when k > 1),
/// pcg.precond, pcg.blas1 and pcg.overlap spans go to obs::current().
class CGEngine {
 public:
  /// Solves res.size() = k columns (1 <= k <= simd::kMaxMultiRhs; k > 1 needs
  /// ops.halo == 0). `b` holds k interleaved columns of ops.n entries and `x`
  /// of ops.n + ops.halo; `tolerances` is empty (every column uses
  /// CGOptions::tolerance) or one per column. Sums every ||b_c||² once and
  /// throws (require_rhs) if one is not positive. b, x, res and tolerances
  /// must outlive the engine. Runs accumulate into res[c] (iterations,
  /// residual history) and the shared flops and loop stats into res[0], so
  /// every run on one engine draws on the same opt.max_iterations budget.
  CGEngine(CGOps ops, std::span<const double> b, std::span<double> x, std::span<CGResult> res,
           std::span<const double> tolerances = {});

  /// Sets every column's residual from `start` and records its norm.
  void start(CGStart start, const CGOptions& opt);

  /// Runs opt.variant from the current residuals until every column
  /// converges, fails or spends the budget; sets each res[c].status and
  /// relative_residual. The Gropp/pipelined columns that break down or
  /// stagnate retry kClassic on the same operators from a warm start
  /// (counted in res[c].variant_fallbacks; kFellBack when the retry
  /// converges).
  void run(const CGOptions& opt);

  [[nodiscard]] int iterations() const { return iterations_; }  ///< shared loop trips
  [[nodiscard]] int compactions() const { return compactions_; }

 private:
  class Stagnation;
  using Vec = simd::aligned_vector<double>;
  using Cols = std::vector<double>;  ///< one scalar per working column

  void classic(const CGOptions& opt);
  void gropp(const CGOptions& opt);
  void pipelined(const CGOptions& opt);

  /// Makes `cols` (caller columns, ascending) the working set, all live.
  void select(std::vector<int> cols);
  void restart(CGStart start, const CGOptions& opt);
  void residual();  ///< r = b - A x
  void spmv(std::span<double> v, std::span<double> out);
  void precond(std::span<const double> in, std::span<double> out);
  // The BLAS-1 width choice, made here only: one working column runs
  // sparse::dot/axpy/xpby, more run the masked *_multi kernels.
  void dot(std::span<const double> a, std::span<const double> b, double* out);
  void axpy(const Cols& alpha, std::span<const double> v, std::span<double> y);
  void xpby(std::span<const double> v, const Cols& beta, std::span<double> y);
  void reduce(std::span<double> v, const std::function<void()>& overlap = {});
  void sum_dot(std::span<const double> a, std::span<const double> b, double* out);
  /// Counts one iteration of every live column.
  void step();
  /// Records iteration `it`'s residual norms; freezes the columns that broke
  /// down or stagnated.
  void advance(int it, const Cols& rnorm, Stagnation& stagnated, const CGOptions& opt);
  /// Freezes the columns that converged or spent the budget; false once no
  /// column is live.
  bool settle(const CGOptions& opt);
  void freeze(int w, SolveStatus status);
  /// Repacks the live columns of r, b, x, `vecs` and `scalars` once at most
  /// half of the working columns are live.
  void compact(std::initializer_list<Vec*> vecs, std::initializer_list<Cols*> scalars);
  [[nodiscard]] double tol(int c, const CGOptions& opt) const {
    return tol_.empty() ? opt.tolerance : tol_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::size_t len() const { return ops_.n * static_cast<std::size_t>(kw_); }
  [[nodiscard]] std::size_t len_halo() const { return len() + ops_.halo; }
  [[nodiscard]] std::span<double> own(std::span<double> v) const { return v.first(len()); }
  [[nodiscard]] std::span<const double> b() { return k_ == 1 ? b_ : own(bw_); }
  [[nodiscard]] std::span<double> x() { return k_ == 1 ? x_ : own(xw_); }
  [[nodiscard]] CGResult& col(int w) { return res_[static_cast<std::size_t>(cols_[w])]; }

  CGOps ops_;
  int k_;
  std::span<const double> b_;
  std::span<double> x_;
  std::span<CGResult> res_;
  std::span<const double> tol_;
  obs::Registry* reg_;
  util::FlopCounter* fc_;
  util::LoopStats* ls_;
  // The working set: kw_ interleaved columns; cols_[w] is working column w's
  // caller column. With k = 1 the working b and x are the caller's own.
  int kw_ = 0;
  int nlive_ = 0;
  std::vector<int> cols_;
  std::vector<unsigned char> live_;
  Vec bw_, xw_, r_;
  Cols bnorm_;  ///< per caller column
  int iterations_ = 0;
  int compactions_ = 0;
};

/// Throws the engine's "zero right-hand side" error unless `bnorm` > 0 (a
/// zero or NaN ||b||). The solver service screens coalesced columns with it,
/// so a refused column fails its own request only.
void require_rhs(double bnorm);

/// Counts one finished solve (a pcg() call or one batched column) into `reg`:
/// pcg.status.<status, spaces as '_'>, pcg.iterations and pcg.solves.
void count_solve(obs::Registry& reg, const CGResult& res);

/// Preconditioned conjugate gradients. `x` holds the initial guess on entry
/// and the solution on return.
CGResult pcg(const MatVec& amul, const precond::Preconditioner& m, std::span<const double> b,
             std::span<double> x, const CGOptions& opt = {});

/// Convenience overload for a serial BlockCSR system.
CGResult pcg(const sparse::BlockCSR& a, const precond::Preconditioner& m,
             std::span<const double> b, std::span<double> x, const CGOptions& opt = {});

}  // namespace geofem::solver
