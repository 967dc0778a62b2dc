#pragma once

#include <functional>
#include <span>
#include <string>

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

/// Where a CGEngine run starts.
enum class CGStart {
  kWarm,  ///< r = b - A x from the current x (one matvec)
  kCold,  ///< x = 0 and r = b, without a matvec
};

/// The three operations the CG engine is bound to (DESIGN.md §5j). pcg()
/// binds a matvec and a preconditioner and leaves `sum` empty;
/// dist::solve_distributed binds its halo-overlapped matvec, its coarse-aware
/// preconditioner and Comm's allreduces.
struct CGOps {
  std::size_t n = 0;     ///< owned entries of every vector: the BLAS-1 length
  std::size_t halo = 0;  ///< extra trailing slots of every apply_a input
  /// out = A v, where v has n + halo entries and apply_a may fill the halo
  /// slots (a halo exchange) before multiplying.
  std::function<void(std::span<double> v, std::span<double> out, util::FlopCounter*,
                     util::LoopStats*)>
      apply_a;
  /// out = M⁻¹ in.
  std::function<void(std::span<const double> in, std::span<double> out, util::FlopCounter*,
                     util::LoopStats*)>
      apply_m;
  /// Sums the partial dot products in `v` across ranks, in place. A non-empty
  /// `overlap` is work to run while the sums are in flight (split phase); an
  /// empty one asks for a blocking sum. Left empty, the partials already are
  /// the sums (one rank): nothing is summed and nothing is hidden.
  std::function<void(std::span<double> v, const std::function<void()>& overlap)> sum;
};

/// One preconditioned CG engine for serial and distributed solves (DESIGN.md
/// §5j): the three variants and the variant -> kClassic retry, written once
/// against CGOps. Every exit decision derives from summed scalars, so all
/// ranks of a distributed solve leave each loop together. The pcg.spmv,
/// pcg.precond, pcg.blas1 and pcg.overlap spans go to obs::current().
class CGEngine {
 public:
  /// Sums ||b||² once. `b` has ops.n entries and `x` ops.n + ops.halo; both
  /// and `res` must outlive the engine. Runs accumulate into `res`
  /// (iterations, residual history, flops, loop stats), so every run on one
  /// engine draws on the same opt.max_iterations budget.
  CGEngine(CGOps ops, std::span<const double> b, std::span<double> x, CGResult& res);

  /// Sets the residual from `start` and records its norm.
  void start(CGStart start, const CGOptions& opt);

  /// Runs opt.variant from the current residual until it converges, fails or
  /// spends the budget; sets res.status and res.relative_residual. A
  /// Gropp/pipelined attempt that breaks down or stagnates retries kClassic
  /// on the same operators from a warm start (counted in
  /// res.variant_fallbacks; kFellBack when the retry converges).
  void run(const CGOptions& opt);

 private:
  class Stagnation;

  void classic(const CGOptions& opt);
  void gropp(const CGOptions& opt);
  void pipelined(const CGOptions& opt);

  void residual();  ///< r = b - A x
  void spmv(std::span<double> v, std::span<double> out);
  void precond(std::span<const double> in, std::span<double> out);
  void reduce(std::span<double> v, const std::function<void()>& overlap = {});
  double sum_dot(std::span<const double> a, std::span<const double> b);
  /// Records the residual norm of iteration `it`; false (status set) on
  /// breakdown or stagnation.
  bool advance(int it, double rnorm, Stagnation& stagnated, const CGOptions& opt);
  void finish(const CGOptions& opt);
  [[nodiscard]] std::span<double> own(std::span<double> v) const { return v.first(ops_.n); }

  CGOps ops_;
  std::span<const double> b_;
  std::span<double> x_;
  CGResult& res_;
  obs::Registry* reg_;
  simd::aligned_vector<double> r_;
  double bnorm_ = 0.0;
};

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
