#include "dist/dist_solver.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <utility>

#include "obs/span.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/diagonal.hpp"
#include "simd/block3.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::dist {

namespace {

constexpr int kHaloTag = 7;

/// First half of the halo exchange: post this rank's boundary values to every
/// neighbour. Sends complete on return (buffered), so computation can proceed
/// while the messages are delivered.
void halo_post_sends(Comm& comm, const part::LocalSystem& ls, std::span<const double> v,
                     std::vector<double>& sendbuf) {
  for (const auto& link : ls.links) {
    sendbuf.clear();
    for (int l : link.send_local)
      for (int c = 0; c < 3; ++c)
        sendbuf.push_back(v[static_cast<std::size_t>(l) * 3 + static_cast<std::size_t>(c)]);
    comm.send(link.domain, kHaloTag, sendbuf);
  }
}

/// Second half: receive every neighbour's boundary values into the external
/// slots of `v` (paper Fig 4 communication tables).
void halo_complete(Comm& comm, const part::LocalSystem& ls, std::span<double> v) {
  for (const auto& link : ls.links) {
    const std::vector<double> msg = comm.recv(link.domain, kHaloTag);
    GEOFEM_CHECK(msg.size() == link.recv_local.size() * 3, "halo message size mismatch");
    for (std::size_t t = 0; t < link.recv_local.size(); ++t)
      for (int c = 0; c < 3; ++c)
        v[static_cast<std::size_t>(link.recv_local[t]) * 3 + static_cast<std::size_t>(c)] =
            msg[t * 3 + static_cast<std::size_t>(c)];
  }
}

/// Blocking halo exchange (the non-overlapped matvec path). The per-link
/// message sequence is identical to the overlapped path: send all, recv all.
void halo_exchange(Comm& comm, const part::LocalSystem& ls, std::span<double> v,
                   std::vector<double>& sendbuf) {
  halo_post_sends(comm, ls, v, sendbuf);
  halo_complete(comm, ls, v);
}

/// y[rows] = A_local[rows] * v with accumulator kernel `Acc`. Rows write
/// disjoint y blocks and keep the serial per-row accumulation order
/// (bit-identical for any team size). Using the same micro-kernel family as
/// BlockCSR::spmv keeps the per-row arithmetic identical to the serial
/// solver's, so the 1-domain distributed run stays bit-identical to it in
/// every SIMD configuration.
template <class Acc>
void spmv_rows_impl(const part::LocalSystem& ls, const std::vector<int>& rows,
                    std::span<const double> v, std::span<double> y) {
  const auto& a = ls.a;
  const int team = par::threads();
  const std::ptrdiff_t m = static_cast<std::ptrdiff_t>(rows.size());
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (std::ptrdiff_t t = 0; t < m; ++t) {
    const int i = rows[static_cast<std::size_t>(t)];
    Acc acc;
    acc.init_zero();
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      acc.madd(a.block(e), v.data() + static_cast<std::size_t>(a.colind[e]) * 3);
    acc.reduce(&y[static_cast<std::size_t>(i) * 3]);
  }
}

void spmv_rows(const part::LocalSystem& ls, const std::vector<int>& rows,
               std::span<const double> v, std::span<double> y) {
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    spmv_rows_impl<simd::AvxAcc3>(ls, rows, v, y);
    return;
  }
#endif
  spmv_rows_impl<simd::ScalarAcc3>(ls, rows, v, y);
}

/// y (internal rows) = A_local * v (all local columns).
template <class Acc>
void local_spmv_impl(const part::LocalSystem& ls, std::span<const double> v,
                     std::span<double> y) {
  const auto& a = ls.a;
  const int team = par::threads();
#pragma omp parallel for schedule(static) num_threads(team) if (team > 1)
  for (int i = 0; i < ls.num_internal; ++i) {
    Acc acc;
    acc.init_zero();
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e)
      acc.madd(a.block(e), v.data() + static_cast<std::size_t>(a.colind[e]) * 3);
    acc.reduce(&y[static_cast<std::size_t>(i) * 3]);
  }
}

void local_spmv(const part::LocalSystem& ls, std::span<const double> v, std::span<double> y,
                util::FlopCounter* fc) {
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    local_spmv_impl<simd::AvxAcc3>(ls, v, y);
  } else
#endif
  {
    local_spmv_impl<simd::ScalarAcc3>(ls, v, y);
  }
  // Internal rows are 0..num_internal-1, so the block count is structural.
  if (fc) fc->spmv += 2ULL * sparse::kBB * static_cast<std::uint64_t>(ls.a.rowptr[ls.num_internal]);
}

}  // namespace

DistResult solve_distributed(const std::vector<part::LocalSystem>& systems,
                             const PrecondFactory& factory, const DistOptions& opt,
                             std::vector<double>* x_global) {
  const int ndom = static_cast<int>(systems.size());
  GEOFEM_CHECK(ndom >= 1, "no local systems");

  DistResult res;
  res.flops_per_rank.resize(static_cast<std::size_t>(ndom));
  res.loops_per_rank.resize(static_cast<std::size_t>(ndom));
  res.precond_bytes_per_rank.assign(static_cast<std::size_t>(ndom), 0);
  std::vector<double> setup_seconds(static_cast<std::size_t>(ndom), 0.0);
  std::vector<int> iters(static_cast<std::size_t>(ndom), 0);
  std::vector<int> burnt_iters(static_cast<std::size_t>(ndom), 0);
  std::vector<double> relres(static_cast<std::size_t>(ndom), 0.0);
  std::vector<SolveStatus> statuses(static_cast<std::size_t>(ndom), SolveStatus::kMaxIterations);
  std::vector<int> pfell(static_cast<std::size_t>(ndom), 0);
  std::vector<int> vfell(static_cast<std::size_t>(ndom), 0);
  std::vector<coarse::SetupStatus> cstats(static_cast<std::size_t>(ndom),
                                          coarse::SetupStatus::kOff);
  std::vector<int> cdims(static_cast<std::size_t>(ndom), 0);
  std::vector<std::optional<TrafficStats>> solve_traffic(static_cast<std::size_t>(ndom));

  // Two-level set-up, structural half: the aggregate map is global (one
  // aggregate per domain = the owner of each global node, optionally refined
  // per contact group), built once here and restricted to each rank's local
  // numbering — halo columns then resolve to the neighbour's aggregate.
  std::vector<coarse::AggregateMap> rank_agg;
  if (opt.coarse.enabled) {
    int gnodes = 0;
    for (const auto& ls : systems)
      for (int g : ls.global_of_local) gnodes = std::max(gnodes, g + 1);
    coarse::AggregateMap global_agg;
    global_agg.count = ndom;
    global_agg.node_to_agg.assign(static_cast<std::size_t>(gnodes), -1);
    for (int d = 0; d < ndom; ++d) {
      const auto& ls = systems[static_cast<std::size_t>(d)];
      for (int l = 0; l < ls.num_internal; ++l)
        global_agg.node_to_agg[static_cast<std::size_t>(
            ls.global_of_local[static_cast<std::size_t>(l)])] = d;
    }
    for (int g : global_agg.node_to_agg)
      GEOFEM_CHECK(g >= 0, "coarse set-up: global node internal to no domain");
    if (opt.coarse.aggregates == coarse::Aggregates::kPerContactGroup)
      global_agg = coarse::refine_by_groups(std::move(global_agg), opt.coarse_groups);
    rank_agg.reserve(static_cast<std::size_t>(ndom));
    for (int d = 0; d < ndom; ++d)
      rank_agg.push_back(coarse::from_global(
          global_agg, systems[static_cast<std::size_t>(d)].global_of_local));
  }

  if (x_global) {
    std::size_t total = 0;
    for (const auto& ls : systems) total += static_cast<std::size_t>(ls.num_internal) * 3;
    x_global->assign(total, 0.0);
  }

  util::Timer wall;
  res.traffic_per_rank = Runtime::run(ndom, opt.faults, [&](Comm& comm) {
    const std::size_t rank = static_cast<std::size_t>(comm.rank());
    const part::LocalSystem& ls = systems[rank];
    const std::size_t ni = static_cast<std::size_t>(ls.num_internal) * 3;
    const std::size_t nl = static_cast<std::size_t>(ls.num_local()) * 3;

    // Hybrid execution: every kernel this rank thread calls (SpMV, BLAS-1,
    // preconditioner sweeps) runs on a team of opt.threads OpenMP threads.
    par::TeamScope team_scope(opt.threads);
    const part::LocalSystem::RowSplit split =
        opt.overlap ? ls.row_split() : part::LocalSystem::RowSplit{};

    // Per-rank telemetry: each rank owns a registry for the duration of the
    // solve; snapshots are gathered to rank 0 below. Attaching it also routes
    // the factory's preconditioner set-up spans here.
    obs::Registry rank_reg;
    obs::Attach attach(opt.telemetry ? &rank_reg : nullptr);
    if (opt.telemetry) {
      rank_reg.set_meta("rank", static_cast<double>(comm.rank()));
      rank_reg.set_meta("internal_dof", static_cast<double>(ni));
      rank_reg.set_meta("local_dof", static_cast<double>(nl));
      rank_reg.set_meta("threads", static_cast<double>(par::threads()));
      rank_reg.set_meta("overlap", opt.overlap ? 1.0 : 0.0);
      rank_reg.set_meta("simd.isa", simd::active_isa());
      rank_reg.gauge("dist.variant")->set(static_cast<double>(opt.cg.variant));
      if (opt.overlap)
        rank_reg.gauge("dist.boundary_rows")->set(static_cast<double>(split.boundary.size()));
    }

    // CG progress (iterations, history, counters), hoisted above the try so a
    // timeout can still report how far the rank got. NaN marks a timeout that
    // struck before the first residual norm.
    solver::CGResult cg;
    cg.relative_residual = std::numeric_limits<double>::quiet_NaN();

    // Everything that communicates runs under this try: once a blocking
    // operation times out (injected fault, dead neighbour), the rank records
    // kCommTimeout and stops communicating — which in turn times out every
    // peer still waiting on it, so the whole run terminates within a few
    // deadlines instead of hanging.
    try {
      // localized preconditioner on the internal submatrix (aii must outlive
      // prec: preconditioners keep a reference to their matrix)
      util::Timer setup;
      const sparse::BlockCSR aii = ls.internal_matrix();
      precond::PreconditionerPtr prec;
      // Builds `prec` with `f`. When the solve is armed, a rank-local
      // factorization failure becomes a global decision through one
      // allreduce_max, so every rank takes the same fallback branch.
      const bool armed = fallback_armed(opt);
      const auto build = [&](const PrecondFactory& f, precond::Precision precision) {
        bool failed = false;
        try {
          prec = f(ls, aii, precision);
        } catch (const Error& e) {
          if (e.code() != StatusCode::kFactorizationFailed || !armed) throw;
          failed = true;
        }
        if (armed) failed = comm.allreduce_max(failed ? 1.0 : 0.0) > 0.0;
        if (!failed) res.precond_bytes_per_rank[rank] = prec->memory_bytes();
        return !failed;
      };
      bool built = false;
      {
        obs::ScopedSpan setup_span("dist.setup");
        built = build(factory, opt.precision);
      }

      // Two-level set-up, numeric half: each rank assembles its Galerkin
      // contribution from ls.a (internal rows, ALL local columns — that is
      // exactly the coupling the localized preconditioner drops), the dense
      // contributions are summed in rank order, and every rank factors the
      // identical replicated A_c. Degrading on a singular A_c is a global
      // decision (allreduced), so lockstep collectives stay aligned.
      std::shared_ptr<const coarse::CoarseOperator> cop;
      if (opt.coarse.enabled) {
        obs::ScopedSpan coarse_span("dist.coarse.setup");
        util::Timer coarse_timer;
        std::shared_ptr<const coarse::CoarseSymbolic> csym;
        std::shared_ptr<const std::vector<double>> contrib;
        const contact::Supernodes no_sn;
        if (opt.plan_cache) {
          // Keyed on the full local matrix ls.a (not aii: its graph drops the
          // halo columns the assembly needs). kDiagonal+natural carries no
          // symbolic state, so the plan is purely the coarse schedule + the
          // value-hash memo that makes warm λ-cycles skip the assembly.
          plan::PlanConfig ccfg;
          ccfg.precond = plan::PrecondKind::kDiagonal;
          ccfg.coarse = true;
          auto cplan = opt.plan_cache->get(ls.a, no_sn, ccfg, nullptr, &rank_agg[rank],
                                           ls.num_internal);
          csym = cplan->coarse_symbolic();
          contrib = cplan->coarse_contribution(ls.a);
        } else {
          csym = std::make_shared<coarse::CoarseSymbolic>(rank_agg[rank], ls.num_internal);
          contrib =
              std::make_shared<const std::vector<double>>(coarse::accumulate(ls.a, *csym));
        }
        const std::vector<double> ac = comm.allreduce_sum(std::span<const double>(*contrib));
        bool coarse_failed = false;
        try {
          cop = std::make_shared<const coarse::CoarseOperator>(std::move(csym), ac);
        } catch (const Error& e) {
          if (e.code() != StatusCode::kFactorizationFailed) throw;
          coarse_failed = true;
        }
        if (comm.allreduce_max(coarse_failed ? 1.0 : 0.0) > 0.0) {
          cop.reset();
          cstats[rank] = coarse::SetupStatus::kDegraded;
          if (opt.telemetry) rank_reg.counter("coarse.degraded")->add(1);
        } else {
          cstats[rank] = coarse::SetupStatus::kActive;
          cdims[rank] = cop->dim();
          if (opt.telemetry) rank_reg.gauge("dist.coarse.dim")->set(cop->dim());
        }
        if (opt.telemetry)
          rank_reg.gauge("dist.coarse.setup_seconds")->set(coarse_timer.seconds());
      }
      setup_seconds[rank] = setup.seconds();
      const std::size_t solve_span =
          opt.telemetry ? rank_reg.span_begin("dist.solve") : std::size_t{0};
      util::Timer solve_timer;

      std::vector<double> x(nl, 0.0), sendbuf;

      // One matvec: out = A_local * v, with the halo exchange either
      // blocking (overlap off) or hidden behind the interior-row SpMV.
      // Interior rows read only internal columns, which the receives never
      // touch, so overlapping them with message delivery is legal; per-row
      // arithmetic and the per-link message sequence are identical either
      // way, hence bit-identical residual histories.
      auto matvec = [&](std::span<double> v, std::span<double> out, util::FlopCounter* fc,
                        util::LoopStats*) {
        if (!opt.overlap) {
          halo_exchange(comm, ls, v, sendbuf);
          local_spmv(ls, v, out, fc);
          return;
        }
        halo_post_sends(comm, ls, v, sendbuf);
        spmv_rows(ls, split.interior, v, out);
        halo_complete(comm, ls, v);
        spmv_rows(ls, split.boundary, v, out);
        fc->spmv +=
            2ULL * sparse::kBB * static_cast<std::uint64_t>(ls.a.rowptr[ls.num_internal]);
      };

      // Coarse-aware preconditioner application. The coarse residual is a
      // global quantity: each rank restricts its internal rows, the coarse
      // vectors are allreduced (rank-ascending, bit-identical everywhere) and
      // the replicated A_c is solved redundantly. Every rank runs the same
      // collective sequence per apply, so CG's lockstep is preserved.
      std::vector<double> cyc, cq, cv, ct, cz1, cmz;
      if (cop) {
        cyc.resize(static_cast<std::size_t>(cop->dim()));
        if (opt.coarse.mode == coarse::Mode::kDeflated) {
          cq.assign(nl, 0.0);
          cv.resize(ni);
          ct.resize(ni);
          cz1.resize(ni);
          cmz.assign(nl, 0.0);
        }
      }
      auto coarse_solve_global = [&](std::span<const double> fine, util::FlopCounter* fc) {
        cop->restrict_residual(fine, cyc, fc);
        const std::vector<double> gy = comm.allreduce_sum(std::span<const double>(cyc));
        std::copy(gy.begin(), gy.end(), cyc.begin());
        cop->solve(cyc, fc);
      };
      const precond::Preconditioner* current = nullptr;  // the preconditioner CG runs on
      auto apply_precond = [&](std::span<const double> rr, std::span<double> zz,
                               util::FlopCounter* fc, util::LoopStats* lp) {
        if (!cop) {
          current->apply(rr, zz, fc, lp);
          return;
        }
        coarse_solve_global(rr, fc);  // cyc = A_c^-1 R r
        if (opt.coarse.mode == coarse::Mode::kAdditive) {
          current->apply(rr, zz, fc, lp);
          cop->prolongate_add(cyc, zz, fc);
          return;
        }
        // Deflated (BNN): z = q + (I - QA) M^-1 (r - A q), q = Q r.
        std::fill(cq.begin(), cq.end(), 0.0);
        cop->prolongate_add(cyc, cq, fc);  // q = P yc (internal part)
        matvec(cq, cv, fc, lp);            // cv = A q
        for (std::size_t i = 0; i < ni; ++i) ct[i] = rr[i] - cv[i];
        current->apply(ct, cz1, fc, lp);   // cz1 = M^-1 (r - A q)
        std::copy(cz1.begin(), cz1.end(), cmz.begin());
        matvec(cmz, cv, fc, lp);           // cv = A cz1
        coarse_solve_global(cv, fc);       // cyc = A_c^-1 R A cz1
        for (std::size_t i = 0; i < ni; ++i) zz[i] = cq[i] + cz1[i];
        for (double& v : cyc) v = -v;
        cop->prolongate_add(cyc, zz, fc);  // z -= P A_c^-1 R A cz1
        fc->blas1 += 3 * ni;
      };

      // Dot-product partials: a blocking allreduce each, or one split-phase
      // allreduce completing behind the engine's overlap window.
      auto allreduce = [&](std::span<double> v, const std::function<void()>& overlap) {
        if (!overlap) {
          for (double& d : v) d = comm.allreduce_sum(d);
          return;
        }
        PendingReduce h = comm.iallreduce_sum(v);
        overlap();
        const std::vector<double> sums = comm.wait(h);
        std::copy(sums.begin(), sums.end(), v.begin());
      };

      // The one CG engine (solver::CGEngine) bound to this rank: every exit
      // decision derives from allreduced scalars, so all ranks leave each
      // attempt with the same status, and every attempt draws on one shared
      // iteration budget.
      solver::CGEngine engine({.n = ni,
                               .halo = nl - ni,
                               .apply_a = matvec,
                               .apply_m = apply_precond,
                               .sum = allreduce},
                              ls.b, x, {&cg, 1});

      // One attempt of the fallback ladder (run_fallback_ladder). Rung 0 is
      // `factory`; the rungs after it are the caller's fallback factory (when
      // set), then the localized block diagonal, which always builds. The
      // set-up above built the first attempt's preconditioner, and its cold
      // start opens the history even when that build failed; a later attempt
      // starts only once built.
      const PrecondFactory block_diag = [](const part::LocalSystem&, const sparse::BlockCSR& m,
                                           precond::Precision) {
        return std::make_unique<precond::BlockDiagonal>(m);
      };
      std::vector<const PrecondFactory*> rungs{&factory};
      if (opt.fallback_factory) rungs.push_back(&opt.fallback_factory);
      rungs.push_back(&block_diag);
      bool first = true;
      const auto attempt = [&](int rung, precond::Precision precision, solver::CGStart start,
                               const solver::CGOptions& cgopt,
                               std::span<const int>) -> std::vector<AttemptOutcome> {
        if (!std::exchange(first, false)) {
          built = build(*rungs[static_cast<std::size_t>(rung)], precision);
          if (!built) return {AttemptOutcome{}};
        }
        const int before = cg.iterations;
        engine.start(start, cgopt);
        if (!built) return {AttemptOutcome{}};
        current = prec.get();
        engine.run(cgopt);
        return {AttemptOutcome{cg.status, cg.iterations - before}};
      };
      const LadderResult lad =
          run_fallback_ladder(opt, static_cast<int>(rungs.size()) - 1, 1, "dist", attempt)
              .front();
      statuses[rank] = lad.status;
      burnt_iters[rank] = lad.fallback_iterations;
      pfell[rank] = lad.precision_fallbacks;

      if (opt.telemetry) {
        rank_reg.span_end(solve_span);
        if (cg.variant_fallbacks > 0)
          rank_reg.counter("dist.fallback.variant")
              ->add(static_cast<std::uint64_t>(cg.variant_fallbacks));
        rank_reg.counter("dist.iterations")->add(static_cast<std::uint64_t>(cg.iterations));
        rank_reg.gauge("dist.setup_seconds")->set(setup_seconds[rank]);
        rank_reg.gauge("dist.solve_seconds")->set(solve_timer.seconds());
        rank_reg.gauge("dist.precond_bytes")
            ->set(static_cast<double>(res.precond_bytes_per_rank[rank]));
        rank_reg.absorb("dist", cg.flops);
        rank_reg.absorb("dist", cg.loops);
        // The solve's traffic: the telemetry gather below is counted neither
        // here nor in DistResult::traffic_per_rank.
        solve_traffic[rank] = comm.traffic();
        export_traffic(*solve_traffic[rank], rank_reg);
        const std::vector<double> blob = encode(rank_reg.snapshot());
        const std::vector<double> gathered = comm.gather(0, blob);
        if (comm.rank() == 0) {
          res.obs_per_rank = obs::decode_all(gathered);
          res.obs_merged = obs::aggregate(res.obs_per_rank);
        }
      }

      if (x_global) {
        for (int l = 0; l < ls.num_internal; ++l) {
          const int g = ls.global_of_local[static_cast<std::size_t>(l)];
          for (int c = 0; c < 3; ++c)
            (*x_global)[static_cast<std::size_t>(g) * 3 + static_cast<std::size_t>(c)] =
                x[static_cast<std::size_t>(l) * 3 + static_cast<std::size_t>(c)];
        }
      }
    } catch (const Error& e) {
      if (e.code() != StatusCode::kCommTimeout) throw;
      statuses[rank] = SolveStatus::kCommTimeout;
    }
    // A timed-out rank keeps whatever progress it made before the deadline,
    // so it is not misread as "zero iterations, residual 0.0".
    iters[rank] = cg.iterations;
    relres[rank] = cg.relative_residual;
    vfell[rank] = cg.variant_fallbacks > 0 ? 1 : 0;
    res.flops_per_rank[rank] = cg.flops;
    res.loops_per_rank[rank] = cg.loops;
    if (comm.rank() == 0) res.residual_history = std::move(cg.residual_history);
  });
  res.solve_seconds = wall.seconds();
  for (std::size_t d = 0; d < solve_traffic.size(); ++d)
    if (solve_traffic[d]) res.traffic_per_rank[d] = *solve_traffic[d];
  if (opt.plan_cache) res.plan_cache = opt.plan_cache->stats();

  res.status_per_rank = statuses;
  res.status = statuses[0];
  for (SolveStatus s : statuses)
    if (s == SolveStatus::kCommTimeout) res.status = SolveStatus::kCommTimeout;
  res.iterations = iters[0];
  res.fallback_iterations = burnt_iters[0];
  res.precision_fallbacks = pfell[0];
  res.variant_fallbacks = vfell[0];
  res.relative_residual = relres[0];
  res.coarse_status = cstats[0];
  res.coarse_dim = cdims[0];
  for (double s : setup_seconds) res.setup_seconds_max = std::max(res.setup_seconds_max, s);
  return res;
}

std::vector<DistResult> solve_distributed_batched(
    std::vector<part::LocalSystem>& systems, const PrecondFactory& factory,
    const std::vector<std::vector<std::vector<double>>>& rhs, const DistOptions& opt,
    std::vector<std::vector<double>>* x_global) {
  GEOFEM_CHECK(!rhs.empty(), "solve_distributed_batched: no columns");
  for (const auto& col : rhs) {
    GEOFEM_CHECK(col.size() == systems.size(),
                 "solve_distributed_batched: column rank count mismatch");
    for (std::size_t r = 0; r < col.size(); ++r)
      GEOFEM_CHECK(col[r].size() == systems[r].b.size(),
                   "solve_distributed_batched: local RHS size mismatch");
  }
  if (x_global) x_global->assign(rhs.size(), {});

  // Swap each column's local RHS in, run the single-RHS driver, swap back —
  // every column sees exactly the state a standalone solve_distributed call
  // would (batch-of-1 bit-identity is by construction).
  std::vector<std::vector<double>> saved(systems.size());
  for (std::size_t r = 0; r < systems.size(); ++r) saved[r] = std::move(systems[r].b);
  std::vector<DistResult> out;
  out.reserve(rhs.size());
  try {
    for (std::size_t c = 0; c < rhs.size(); ++c) {
      for (std::size_t r = 0; r < systems.size(); ++r) systems[r].b = rhs[c][r];
      out.push_back(solve_distributed(systems, factory, opt,
                                      x_global ? &(*x_global)[c] : nullptr));
    }
  } catch (...) {
    for (std::size_t r = 0; r < systems.size(); ++r) systems[r].b = std::move(saved[r]);
    throw;
  }
  for (std::size_t r = 0; r < systems.size(); ++r) systems[r].b = std::move(saved[r]);
  return out;
}

PrecondFactory make_plan_factory(plan::PlanCache& cache, plan::PlanConfig cfg,
                                 std::vector<std::vector<int>> global_groups) {
  GEOFEM_CHECK(cfg.ordering == plan::OrderingKind::kNatural,
               "make_plan_factory supports the natural ordering only");
  return [&cache, cfg, groups = std::move(global_groups)](
             const part::LocalSystem& ls, const sparse::BlockCSR& aii,
             precond::Precision precision) {
    const auto sn = contact::build_supernodes(aii.n, ls.local_contact_groups(groups));
    // The requested precision perturbs the plan key (only when kSingle), so
    // an fp64 re-setup after an fp32 failure builds — and caches — a second,
    // full-precision plan instead of refilling the fp32 one.
    plan::PlanConfig c = cfg;
    c.precision = precision;
    return std::make_unique<plan::PlannedPreconditioner>(cache.get(aii, sn, c), aii);
  };
}

}  // namespace geofem::dist
