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
/// column c of a k-column interleaved vector in the PDJDS plan's ordering.
void to_plan_order(const std::vector<int>& perm, std::span<const double> mesh,
                   std::span<double> plan, std::size_t k = 1, std::size_t c = 0) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    for (std::size_t d = 0; d < 3; ++d)
      plan[(static_cast<std::size_t>(perm[i]) * 3 + d) * k + c] = mesh[i * 3 + d];
}

/// The inverse of to_plan_order: column c of `plan` back into mesh ordering.
void to_mesh_order(const std::vector<int>& perm, std::span<const double> plan,
                   std::span<double> mesh, std::size_t k = 1, std::size_t c = 0) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    for (std::size_t d = 0; d < 3; ++d)
      mesh[i * 3 + d] = plan[(static_cast<std::size_t>(perm[i]) * 3 + d) * k + c];
}

/// Outcome of the structure + numeric set-up phase shared by the single-RHS
/// attempts and the batched entry: the (possibly cached) plan and the
/// ready preconditioner.
struct Setup {
  std::shared_ptr<const plan::SolvePlan> plan;
  precond::PreconditionerPtr prec;
};

/// Set-up phase of one solve: plan lookup (or build), numeric factorization,
/// optional coarse level — everything before the Krylov loop, with all the
/// associated SolveReport bookkeeping (bytes, plan reuse, timings, PDJDS
/// statistics) filled into `rep`. Throws Error(kFactorizationFailed) if the
/// factorization hits an unusable pivot. Factored out of attempt_solve so
/// solve_system_batched shares it verbatim (one set-up, k right-hand sides).
Setup setup_solve(const fem::System& sys, const contact::Supernodes& sn, const SolveConfig& cfg,
                  PrecondKind kind, precond::Precision precision, SolveReport& rep) {
  rep.matrix_bytes = sys.a.memory_bytes();
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
    agg = coarse::single_aggregate(sys.a.n);
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
    p = cache.get(sys.a, sn, pcfg, &hit, aggp);
    rep.plan_cache = cache.stats();
    rep.plan_reused = hit;
  } else {
    p = std::make_shared<plan::SolvePlan>(sys.a, sn, pcfg, aggp);
  }
  rep.symbolic_seconds = p->symbolic_seconds();
  util::Timer numeric_timer;
  precond::PreconditionerPtr prec = p->numeric(sys.a);
  rep.numeric_seconds = numeric_timer.seconds();
  if (cfg.coarse.enabled) {
    // Second level: assemble (value-memoized in the plan) and factor A_c,
    // then wrap the one-level factorization. A singular A_c is a typed,
    // non-fatal outcome — the solve continues one-level.
    util::Timer coarse_timer;
    rep.coarse_status = coarse::SetupStatus::kActive;
    try {
      auto op = p->coarse_numeric(sys.a);
      rep.coarse_dim = op->dim();
      prec = std::make_unique<precond::TwoLevel>(std::move(prec), std::move(op), sys.a,
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

/// One set-up + CG attempt with preconditioner `kind` on a fresh iteration
/// budget: the serial fallback ladder's attempt. `x0` (mesh ordering)
/// warm-starts CG; null starts from zero. Throws
/// geofem::Error(kFactorizationFailed) if the factorization hits an unusable
/// pivot. Fills everything in the report except status / attempts /
/// fallback_* / precision_fallbacks (owned by the ladder).
SolveReport attempt_solve(const fem::System& sys, const contact::Supernodes& sn,
                          const SolveConfig& cfg, PrecondKind kind,
                          const solver::CGOptions& cgopt, const std::vector<double>* x0,
                          precond::Precision precision) {
  SolveReport rep;
  Setup s = setup_solve(sys, sn, cfg, kind, precision, rep);
  precond::PreconditionerPtr& prec = s.prec;

  if (cfg.ordering == OrderingKind::kNatural) {
    if (x0) {
      rep.solution = *x0;
    } else {
      rep.solution.assign(sys.a.ndof(), 0.0);
    }
    rep.cg = solver::pcg(sys.a, *prec, sys.b, rep.solution, cgopt);
    return rep;
  }

  // PDJDS/MC path: the plan owns the ordering; solve in the new ordering and
  // permute back.
  const reorder::DJDSMatrix& dj = *s.plan->djds();
  std::vector<double> pb(sys.a.ndof()), px(sys.a.ndof(), 0.0);
  to_plan_order(dj.perm(), sys.b, pb);
  if (x0) to_plan_order(dj.perm(), *x0, px);
  rep.cg = solver::pcg(
      [&dj](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
            util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
      *prec, pb, px, cgopt);
  rep.solution.assign(sys.a.ndof(), 0.0);
  to_mesh_order(dj.perm(), px, rep.solution);
  return rep;
}

}  // namespace

SolveReport solve_system(const fem::System& sys, const contact::Supernodes& sn,
                         const SolveConfig& cfg) {
  const Session session(cfg);

  // One attempt of the fallback ladder (geofem::run_fallback_ladder): set-up
  // and CG on a fresh iteration budget. Rung i > 0 is chain[i - 1]. A warm
  // start continues from the last attempt that ran since the last cold one.
  const std::vector<PrecondKind> chain = fallback_chain(cfg.resilience, cfg.precond);
  SolveReport out;   // the last attempt that ran CG
  bool warm = false;  // out.solution is the iterate a warm start continues
  const auto attempt = [&](int rung, precond::Precision precision, solver::CGStart start,
                           const solver::CGOptions& cgopt) {
    const PrecondKind kind = rung == 0 ? cfg.precond : chain[static_cast<std::size_t>(rung - 1)];
    // The PDJDS orderings only vectorize the no-fill kinds; a fallback rung of
    // any other kind (notably the last-resort block diagonal, which needs no
    // reordering) runs in the natural ordering instead of tripping the plan's
    // check.
    SolveConfig acfg = cfg;
    if (rung > 0 && !plan::ordering_supports(acfg.ordering, kind))
      acfg.ordering = OrderingKind::kNatural;
    if (start == solver::CGStart::kCold) warm = false;
    out = attempt_solve(sys, sn, acfg, kind, cgopt, warm ? &out.solution : nullptr, precision);
    warm = true;
    return AttemptOutcome{out.cg.status, out.cg.iterations, out.setup_seconds};
  };
  const LadderResult lad =
      run_fallback_ladder(cfg, static_cast<int>(chain.size()), "core", attempt);

  // `out` is still an empty report when no attempt ran (every build failed).
  out.status = lad.status;
  out.attempts = {cfg.precond};
  out.attempts.insert(out.attempts.end(), chain.begin(), chain.begin() + lad.rungs);
  out.fallback_iterations = lad.fallback_iterations;
  out.fallback_setup_seconds = lad.fallback_setup_seconds;
  out.precision_fallbacks = lad.precision_fallbacks;
  return out;
}

std::vector<SolveReport> solve_system_batched(const fem::System& sys,
                                              const contact::Supernodes& sn,
                                              const SolveConfig& cfg,
                                              const std::vector<std::vector<double>>& rhs,
                                              const std::vector<double>& tolerances,
                                              double compact_threshold) {
  const int k = static_cast<int>(rhs.size());
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "solve_system_batched: bad column count");
  GEOFEM_CHECK(tolerances.empty() || tolerances.size() == rhs.size(),
               "solve_system_batched: tolerances must be empty or one per column");
  const std::size_t nd = sys.a.ndof();
  for (const auto& col : rhs)
    GEOFEM_CHECK(col.size() == nd, "solve_system_batched: rhs column size mismatch");

  // Batch-of-1 is the single-RHS pipeline, verbatim: same resilience chain,
  // same precision rung, bit-identical report.
  if (k == 1) {
    fem::System one;
    one.a = sys.a;
    one.b = rhs[0];
    SolveConfig c1 = cfg;
    if (!tolerances.empty()) c1.cg.tolerance = tolerances[0];
    std::vector<SolveReport> out;
    out.push_back(solve_system(one, sn, c1));
    return out;
  }

  GEOFEM_CHECK(cfg.cg.variant == solver::CGVariant::kClassic,
               "solve_system_batched: k > 1 supports CGVariant::kClassic only");
  GEOFEM_CHECK(!cfg.resilience.enabled,
               "solve_system_batched: k > 1 is a direct solve (no resilience chain)");

  const Session session(cfg);

  SolveReport base;
  Setup s = setup_solve(sys, sn, cfg, cfg.precond, cfg.precision, base);
  base.attempts = {cfg.precond};

  solver::BatchedCGOptions bopt;
  bopt.cg = cfg.cg;
  bopt.tolerances = tolerances;
  bopt.compact_threshold = compact_threshold;

  const auto kk = static_cast<std::size_t>(k);
  std::vector<double> bi(nd * kk), xi(nd * kk, 0.0);
  solver::BatchedCGResult bres;
  const bool natural = cfg.ordering == OrderingKind::kNatural;
  if (natural) {
    for (std::size_t c = 0; c < kk; ++c)
      for (std::size_t d = 0; d < nd; ++d) bi[d * kk + c] = rhs[c][d];
    bres = solver::pcg_batched(sys.a, *s.prec, bi, xi, k, bopt);
  } else {
    // PDJDS/MC path: permute every column into the plan's ordering, solve,
    // permute back below.
    const reorder::DJDSMatrix& dj = *s.plan->djds();
    for (std::size_t c = 0; c < kk; ++c) to_plan_order(dj.perm(), rhs[c], bi, kk, c);
    bres = solver::pcg_batched(
        [&dj](std::span<const double> in, std::span<double> out, util::FlopCounter* fc,
              util::LoopStats* ls) { dj.spmv(in, out, fc, ls); },
        [&dj](std::span<const double> in, std::span<double> out, int kb, util::FlopCounter* fc,
              util::LoopStats* ls) { dj.spmm(in, out, kb, fc, ls); },
        *s.prec, bi, xi, k, bopt);
  }

  std::vector<SolveReport> out;
  out.reserve(kk);
  for (std::size_t c = 0; c < kk; ++c) {
    SolveReport rep = base;
    rep.cg = bres.columns[c];
    rep.cg.solve_seconds = bres.solve_seconds;
    if (c == 0) {
      rep.cg.flops = bres.flops;
      rep.cg.loops = bres.loops;
    }
    rep.status = rep.cg.status;
    rep.solution.assign(nd, 0.0);
    if (natural) {
      for (std::size_t d = 0; d < nd; ++d) rep.solution[d] = xi[d * kk + c];
    } else {
      to_mesh_order(s.plan->djds()->perm(), xi, rep.solution, kk, c);
    }
    out.push_back(std::move(rep));
  }
  return out;
}

}  // namespace geofem::core
