#pragma once

#include <optional>
#include <string>

#include "coarse/coarse.hpp"
#include "contact/penalty.hpp"
#include "core/options.hpp"
#include "core/resilience.hpp"
#include "core/status.hpp"
#include "fem/assembly.hpp"
#include "mesh/hex_mesh.hpp"
#include "plan/cache.hpp"
#include "plan/fingerprint.hpp"
#include "precond/preconditioner.hpp"
#include "reorder/djds.hpp"
#include "solver/cg.hpp"

namespace geofem::obs {
class Registry;
}

/// Public one-call API of the library: assemble a contact problem, pick a
/// preconditioner and (optionally) the PDJDS/MC vector ordering, solve, and
/// get the paper-style instrumentation back (iterations, timings, FLOPs,
/// memory, vector-length/imbalance statistics).
namespace geofem::core {

// The structure-relevant vocabulary lives with the plan subsystem (it keys
// the plan cache); aliased here so core callers keep spelling
// core::PrecondKind::kSBBIC0 etc.
using PrecondKind = plan::PrecondKind;
using OrderingKind = plan::OrderingKind;

[[nodiscard]] std::string to_string(PrecondKind k);

/// Shared solver knobs (cg, threads, overlap, plan_cache, resilience, coarse,
/// precision) live in core::SolveOptionsBase — one header embedded by this
/// struct and dist::DistOptions alike — so the two entry points cannot drift.
struct SolveConfig : SolveOptionsBase {
  PrecondKind precond = PrecondKind::kSBBIC0;
  double penalty = 1e6;        ///< lambda applied to the mesh contact groups
  OrderingKind ordering = OrderingKind::kNatural;
  int colors = 20;             ///< MC target color count (PDJDS path)
  int npe = 8;                 ///< PEs per SMP node (PDJDS path)
  bool sort_supernodes = true; ///< Fig 22 switch
  /// Consult the plan cache (SolveOptionsBase::plan_cache, or the
  /// process-wide plan::default_cache() when that is null) for the
  /// structure-dependent set-up; false always rebuilds.
  bool use_plan_cache = true;
  /// Re-entrant session entry (svc::SolverService): when set, this registry
  /// is obs::Attach-ed to the calling thread for the duration of the solve,
  /// so concurrent sessions in one process record telemetry independently
  /// without the caller managing attachment around every call. Null keeps
  /// whatever registry the thread already has attached.
  obs::Registry* registry = nullptr;
};

struct SolveReport {
  /// Outcome of the whole pipeline (geofem::run_fallback_ladder). Equal to
  /// cg.status for a direct solve; kFellBack when an fp64 re-set-up or a
  /// fallback rebuild recovered convergence; else the last attempt's status.
  SolveStatus status = SolveStatus::kMaxIterations;
  /// Preconditioner kinds tried in order (fp32 and its fp64 re-set-up count
  /// once); `cg`/`solution` are the last attempt that ran CG (empty if none).
  std::vector<PrecondKind> attempts;
  /// CG iterations / set-up seconds of every other attempt that ran (zero
  /// for a direct solve); each attempt had a fresh iteration budget.
  int fallback_iterations = 0;
  double fallback_setup_seconds = 0.0;
  solver::CGResult cg;
  std::vector<double> solution;    ///< mesh ordering, 3 DOF per node
  /// Structured identity of the preconditioner that produced `cg` (kind,
  /// precision, PDJDS, coarse mode/dim). `precond_name` is its rendering
  /// (Desc::display_name()), kept for table/report compatibility.
  precond::Desc precond;
  std::string precond_name;
  /// fp32 attempts re-set-up at fp64 after stagnation/breakdown/narrowing
  /// overflow (0 or 1).
  int precision_fallbacks = 0;
  double setup_seconds = 0.0;      ///< reorder + factorization
  std::size_t matrix_bytes = 0;
  std::size_t precond_bytes = 0;
  // PDJDS statistics (zero on the CSR path)
  double avg_vector_length = 0.0;
  double load_imbalance_percent = 0.0;
  double dummy_percent = 0.0;
  int colors_used = 0;
  // plan reuse
  bool plan_reused = false;        ///< set-up came from a cached plan
  double symbolic_seconds = 0.0;   ///< structure phase when the plan was built
  double numeric_seconds = 0.0;    ///< value phase of this solve
  plan::CacheStats plan_cache;     ///< stats of the cache consulted
  // two-level coarse correction (kOff unless SolveConfig::coarse.enabled)
  coarse::SetupStatus coarse_status = coarse::SetupStatus::kOff;
  int coarse_dim = 0;              ///< coarse DOFs (3 per aggregate) when active
  double coarse_setup_seconds = 0.0;  ///< Galerkin assembly + dense factorization

  [[nodiscard]] bool converged() const { return ok(status); }
};

/// Build the requested preconditioner on an assembled matrix. `sn` is only
/// used by kSBBIC0 (copied). `precision` selects the stored factor scalar
/// (kSingle = fp32 mirrors; throws Error(kFactorizationFailed) on narrowing
/// overflow).
precond::PreconditionerPtr make_preconditioner(
    PrecondKind kind, const sparse::BlockCSR& a, const contact::Supernodes& sn,
    precond::Precision precision = precond::Precision::kDouble);

/// Assemble (elasticity + penalty + boundary conditions) and solve.
SolveReport solve(const mesh::HexMesh& m, const std::vector<fem::Material>& materials,
                  const fem::BoundaryConditions& bc, const SolveConfig& cfg);

/// Solve a prepared system (penalty and BCs already applied). `sn` is the
/// supernode map built from the matrix's contact groups (selective blocking),
/// so callers can't hand in a group list inconsistent with the matrix they
/// assembled it from.
SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg);

/// Batched multi-RHS entry (DESIGN.md §5k): solve A x_c = b_c for the k
/// right-hand sides in `rhs` (each ndof long; sys.b is ignored). It runs the
/// body of solve_system with k columns: every attempt of the fallback ladder
/// is ONE set-up (plan lookup + numeric factorization) and one k-column CG
/// (solver::pcg_batched) over the columns that are not yet ok, so variants,
/// the fp32 -> fp64 re-set-up and the resilience rungs apply per column.
/// Returns one SolveReport per column, in order: per-column status /
/// attempts / iterations / residuals / solution. The shared set-up
/// bookkeeping (plan reuse, timings, bytes) of a column's last attempt is
/// replicated into its report; that attempt's shared CG flops/loops are
/// carried by the first column it solved (summing across columns would
/// double-count shared work), and its cg.solve_seconds is the attempt's CG
/// wall time.
///
/// `tolerances` is empty (every column uses cfg.cg.tolerance) or one entry
/// per column. rhs.size() == 1 is bit-identical to solve_system on that
/// right-hand side.
std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances = {});

}  // namespace geofem::core
