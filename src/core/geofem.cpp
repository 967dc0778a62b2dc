#include "core/geofem.hpp"

#include "obs/span.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "simd/simd.hpp"
#include "precond/bic.hpp"
#include "precond/diagonal.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "precond/scalar_ic0.hpp"
#include "precond/two_level.hpp"
#include "simd/multirhs.hpp"
#include "solver/batch.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::core {

std::string to_string(PrecondKind k) { return plan::to_string(k); }

precond::PreconditionerPtr make_preconditioner(PrecondKind kind, const sparse::BlockCSR& a,
                                               const contact::Supernodes& sn,
                                               precond::Precision precision) {
  switch (kind) {
    case PrecondKind::kDiagonal:
      return std::make_unique<precond::DiagonalScaling>(a, precision);
    case PrecondKind::kScalarIC0: return std::make_unique<precond::ScalarIC0>(a, precision);
    case PrecondKind::kBIC0: return std::make_unique<precond::BIC0>(a, precision);
    case PrecondKind::kBIC1: return std::make_unique<precond::BlockILUk>(a, 1, precision);
    case PrecondKind::kBIC2: return std::make_unique<precond::BlockILUk>(a, 2, precision);
    case PrecondKind::kSBBIC0:
      return std::make_unique<precond::SBBIC0>(a, sn, /*modified=*/false, precision);
    case PrecondKind::kBlockDiagonal:
      return std::make_unique<precond::BlockDiagonal>(a, precision);
  }
  GEOFEM_CHECK(false, "unknown preconditioner kind");
}

SolveReport solve(const mesh::HexMesh& m, const std::vector<fem::Material>& materials,
                  const fem::BoundaryConditions& bc, const SolveConfig& cfg) {
  par::TeamScope team(cfg.threads);  // the set-up runs on the solve's team too
  fem::System sys = fem::assemble_elasticity(m, materials);
  contact::add_penalty(sys.a, m.contact_groups, cfg.penalty);
  fem::apply_boundary_conditions(sys, bc);
  return solve_system(sys, contact::build_supernodes(sys.a.n, m.contact_groups), cfg);
}

namespace {

/// Session preamble of both solve entries. Attaches cfg.registry (when set)
/// to the calling thread for the duration of the call, so concurrent service
/// workers record into their own registries without global state; runs every
/// kernel below (SpMV, BLAS-1, substitution sweeps) on a team of cfg.threads
/// OpenMP threads; records the team size and SIMD tier.
class Session {
 public:
  explicit Session(const SolveConfig& cfg) : team_(cfg.threads) {
    if (cfg.registry) attach_.emplace(cfg.registry);
    if (obs::Registry* reg = obs::current()) {
      reg->gauge("core.threads")->set(static_cast<double>(par::threads()));
      reg->gauge("core.simd_lane_width")->set(static_cast<double>(simd::lane_width()));
      reg->set_meta("simd.isa", simd::active_isa());
    }
  }

 private:
  par::TeamScope team_;
  std::optional<obs::Attach> attach_;
};

/// plan[(perm[i]·3 + d)·k + c] = mesh[i·3 + d]: a mesh-ordered vector into
/// column c of a k-column interleaved vector in the solve's ordering (the
/// PDJDS plan's `perm`; the mesh ordering itself when `perm` is null).
void to_plan_order(const std::vector<int>* perm, std::span<const double> mesh,
                   std::span<double> plan, std::size_t k, std::size_t c) {
  for (std::size_t i = 0; i < mesh.size() / 3; ++i) {
    const std::size_t p = perm ? static_cast<std::size_t>((*perm)[i]) : i;
    for (std::size_t d = 0; d < 3; ++d) plan[(p * 3 + d) * k + c] = mesh[i * 3 + d];
  }
}

/// The inverse of to_plan_order: column c of `plan` back into mesh ordering.
void to_mesh_order(const std::vector<int>* perm, std::span<const double> plan,
                   std::span<double> mesh, std::size_t k, std::size_t c) {
  for (std::size_t i = 0; i < mesh.size() / 3; ++i) {
    const std::size_t p = perm ? static_cast<std::size_t>((*perm)[i]) : i;
    for (std::size_t d = 0; d < 3; ++d) mesh[i * 3 + d] = plan[(p * 3 + d) * k + c];
  }
}

/// Outcome of the structure + numeric set-up phase of one attempt: the
/// (possibly cached) plan and the ready preconditioner.
struct Setup {
  std::shared_ptr<const plan::SolvePlan> plan;
  precond::PreconditionerPtr prec;
};

/// Set-up phase of one solve: plan lookup (or build), numeric factorization,
/// optional coarse level — everything before the Krylov loop, with all the
/// associated SolveReport bookkeeping (bytes, plan reuse, timings, PDJDS
/// statistics) filled into `rep`. Throws Error(kFactorizationFailed) if the
/// factorization hits an unusable pivot.
Setup setup_solve(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                  const SolveConfig& cfg, PrecondKind kind, precond::Precision precision,
                  SolveReport& rep) {
  rep.matrix_bytes = a.memory_bytes();
  obs::Registry* reg = obs::current();
  // setup span closed (span_end) where setup_seconds is read
  const std::size_t setup_idx = reg ? reg->span_begin("core.setup") : 0;
  util::Timer setup;

  // Plan: everything structure-dependent (symbolic pattern, coloring, DJDS
  // layout), cached across solves on the same graph; then the per-solve
  // numeric factorization.
  plan::PlanConfig pcfg;
  pcfg.precond = kind;
  pcfg.precision = precision;
  pcfg.ordering = cfg.ordering;
  pcfg.colors = cfg.colors;
  pcfg.npe = cfg.npe;
  pcfg.sort_supernodes = cfg.sort_supernodes;
  pcfg.coarse = cfg.coarse.enabled;
  coarse::AggregateMap agg;
  if (cfg.coarse.enabled) {
    GEOFEM_CHECK(cfg.ordering == OrderingKind::kNatural,
                 "coarse correction requires the natural ordering");
    agg = coarse::single_aggregate(a.n);
    if (cfg.coarse.aggregates == coarse::Aggregates::kPerContactGroup)
      agg = coarse::refine_by_groups(std::move(agg), sn.members);
  }
  const coarse::AggregateMap* aggp = cfg.coarse.enabled ? &agg : nullptr;
  std::shared_ptr<const plan::SolvePlan> p;
  if (cfg.use_plan_cache) {
    plan::PlanCache& cache = cfg.plan_cache ? *cfg.plan_cache : plan::default_cache();
    // get() reports the hit directly: under concurrent sessions a stats()
    // delta would attribute other callers' hits to this solve.
    bool hit = false;
    p = cache.get(a, sn, pcfg, &hit, aggp);
    rep.plan_cache = cache.stats();
    rep.plan_reused = hit;
  } else {
    p = std::make_shared<plan::SolvePlan>(a, sn, pcfg, aggp);
  }
  rep.symbolic_seconds = p->symbolic_seconds();
  util::Timer numeric_timer;
  precond::PreconditionerPtr prec = p->numeric(a);
  rep.numeric_seconds = numeric_timer.seconds();
  if (cfg.coarse.enabled) {
    // Second level: assemble (value-memoized in the plan) and factor A_c,
    // then wrap the one-level factorization. A singular A_c is a typed,
    // non-fatal outcome — the solve continues one-level.
    util::Timer coarse_timer;
    rep.coarse_status = coarse::SetupStatus::kActive;
    try {
      auto op = p->coarse_numeric(a);
      rep.coarse_dim = op->dim();
      prec = std::make_unique<precond::TwoLevel>(std::move(prec), std::move(op), a,
                                                 cfg.coarse.mode);
    } catch (const Error& e) {
      if (e.code() != StatusCode::kFactorizationFailed) throw;
      rep.coarse_status = coarse::SetupStatus::kDegraded;
      if (reg) reg->counter("coarse.degraded")->add(1);
    }
    rep.coarse_setup_seconds = coarse_timer.seconds();
    if (reg) reg->gauge("coarse.dim")->set(static_cast<double>(rep.coarse_dim));
  }
  rep.setup_seconds = setup.seconds();
  if (reg) reg->span_end(setup_idx);
  if (reg) reg->gauge("core.setup_seconds")->set(rep.setup_seconds);
  rep.precond_bytes = prec->memory_bytes();
  rep.precond = prec->desc();
  rep.precond_name = rep.precond.display_name();

  if (cfg.ordering != OrderingKind::kNatural) {
    const reorder::DJDSMatrix& dj = *p->djds();
    rep.avg_vector_length = dj.average_vector_length();
    rep.load_imbalance_percent = dj.load_imbalance_percent();
    rep.dummy_percent = dj.dummy_percent();
    rep.colors_used = dj.num_colors();
    if (reg) {
      reg->gauge("core.avg_vector_length")->set(rep.avg_vector_length);
      reg->gauge("core.load_imbalance_percent")->set(rep.load_imbalance_percent);
      reg->gauge("core.colors_used")->set(rep.colors_used);
    }
  }
  return Setup{std::move(p), std::move(prec)};
}

/// The one body of solve_system and solve_system_batched: the fallback ladder
/// (geofem::run_fallback_ladder) over the k right-hand sides `rhs` (mesh
/// ordering) with per-column `tolerances` (empty: cfg.cg.tolerance).
std::vector<SolveReport> solve_columns(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                                       const SolveConfig& cfg,
                                       const std::vector<std::span<const double>>& rhs,
                                       const std::vector<double>& tolerances) {
  const Session session(cfg);
  for (const auto& col : rhs)
    GEOFEM_CHECK(col.size() == a.ndof(), "solve_system: rhs size mismatch");

  // One attempt of the ladder: one set-up and one k-column CG on a fresh
  // iteration budget over the listed columns. Rung i > 0 is chain[i - 1]. A
  // warm start continues a column from the last attempt that ran it since
  // its last cold one. Throws Error(kFactorizationFailed) if the
  // factorization hits an unusable pivot. A column's report is its last
  // attempt: the shared set-up bookkeeping replicated, the shared CG
  // flops/loops on the attempt's first column, cg.solve_seconds the
  // attempt's CG wall time.
  const std::vector<PrecondKind> chain = fallback_chain(cfg.resilience, cfg.precond);
  std::vector<SolveReport> out(rhs.size());  // per column: the last attempt that ran CG
  std::vector<char> warm(rhs.size(), 0);      // out[c].solution is the iterate to continue
  const auto attempt = [&](int rung, precond::Precision precision, solver::CGStart start,
                           const solver::CGOptions& cgopt, std::span<const int> cols) {
    const PrecondKind kind = rung == 0 ? cfg.precond : chain[static_cast<std::size_t>(rung - 1)];
    // The PDJDS orderings only vectorize the no-fill kinds; a fallback rung of
    // any other kind (notably the last-resort block diagonal, which needs no
    // reordering) runs in the natural ordering instead of tripping the plan's
    // check.
    SolveConfig acfg = cfg;
    if (rung > 0 && !plan::ordering_supports(acfg.ordering, kind))
      acfg.ordering = OrderingKind::kNatural;
    if (start == solver::CGStart::kCold)
      for (const int c : cols) warm[static_cast<std::size_t>(c)] = 0;
    SolveReport base;
    Setup s = setup_solve(a, sn, acfg, kind, precision, base);

    // Solve in the plan's ordering (PDJDS/MC) or the mesh's own (natural), on
    // the listed columns interleaved, and permute back.
    const reorder::DJDSMatrix* dj =
        acfg.ordering == OrderingKind::kNatural ? nullptr : s.plan->djds();
    const std::vector<int>* perm = dj ? &dj->perm() : nullptr;
    const std::size_t nd = a.ndof(), k = cols.size();
    std::vector<double> bi(nd * k), xi(nd * k, 0.0);
    solver::BatchedCGOptions bopt{cgopt, {}};
    for (std::size_t j = 0; j < k; ++j) {
      const auto c = static_cast<std::size_t>(cols[j]);
      to_plan_order(perm, rhs[c], bi, k, j);
      if (warm[c]) to_plan_order(perm, out[c].solution, xi, k, j);
      if (!tolerances.empty()) bopt.tolerances.push_back(tolerances[c]);
    }
    const int kc = static_cast<int>(k);
    solver::BatchedCGResult bres =
        dj ? solver::pcg_batched(
                 [dj](std::span<const double> in, std::span<double> o, util::FlopCounter* fc,
                      util::LoopStats* ls) { dj->spmv(in, o, fc, ls); },
                 [dj](std::span<const double> in, std::span<double> o, int kb,
                      util::FlopCounter* fc, util::LoopStats* ls) { dj->spmm(in, o, kb, fc, ls); },
                 *s.prec, bi, xi, kc, bopt)
           : solver::pcg_batched(a, *s.prec, bi, xi, kc, bopt);

    std::vector<AttemptOutcome> outcomes;
    for (std::size_t j = 0; j < k; ++j) {
      const auto c = static_cast<std::size_t>(cols[j]);
      SolveReport& rep = out[c] = base;
      rep.cg = std::move(bres.columns[j]);
      rep.cg.solve_seconds = bres.solve_seconds;
      if (j == 0) {
        rep.cg.flops = bres.flops;
        rep.cg.loops = bres.loops;
      }
      rep.solution.assign(nd, 0.0);
      to_mesh_order(perm, xi, rep.solution, k, j);
      warm[c] = 1;
      outcomes.push_back({rep.cg.status, rep.cg.iterations, rep.setup_seconds});
    }
    return outcomes;
  };
  const std::vector<LadderResult> lad = run_fallback_ladder(
      cfg, static_cast<int>(chain.size()), static_cast<int>(rhs.size()), "core", attempt);

  // A column's report is still empty when no attempt ran it (every build
  // failed).
  for (std::size_t c = 0; c < out.size(); ++c) {
    SolveReport& rep = out[c];
    rep.status = lad[c].status;
    rep.attempts = {cfg.precond};
    rep.attempts.insert(rep.attempts.end(), chain.begin(), chain.begin() + lad[c].rungs);
    rep.fallback_iterations = lad[c].fallback_iterations;
    rep.fallback_setup_seconds = lad[c].fallback_setup_seconds;
    rep.precision_fallbacks = lad[c].precision_fallbacks;
  }
  return out;
}

}  // namespace

SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg) {
  return std::move(solve_columns(sys.a, sn, cfg, {sys.b}, {}).front());
}

std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances) {
  GEOFEM_CHECK(!rhs.empty() && rhs.size() <= static_cast<std::size_t>(simd::kMaxMultiRhs),
               "solve_system_batched: bad column count");
  GEOFEM_CHECK(tolerances.empty() || tolerances.size() == rhs.size(),
               "solve_system_batched: tolerances must be empty or one per column");
  return solve_columns(sys.a, sn, cfg, {rhs.begin(), rhs.end()}, tolerances);
}

}  // namespace geofem::core
