// Cost of recovering through the fallback chain versus knowing the right
// preconditioner up front. At extreme contact penalties (Table 2's "did not
// converge" regime) localized BIC(0) stalls; the resilient pipeline detects
// the stagnation, rebuilds as SB-BIC(0) through the plan cache, and restarts
// CG warm. The interesting number is the overhead of that detour — iterations
// burnt in the doomed attempt plus the rebuild — relative to a direct
// SB-BIC(0) solve of the same system.
//
// Expected shape: the resilient BIC(0) solve ends kFellBack with the same
// final preconditioner (and comparable iteration count) as the direct
// SB-BIC(0) run; overhead is dominated by the stagnation window, so "burnt
// iters" is about the configured window. A third row per lambda runs the same
// resilient BIC(0) on 2 ranks through dist::solve_distributed, whose built-in
// rung is the localized block diagonal. That row checks the distributed
// ladder's mechanics rather than recovery: every rank must end with the same
// status, neither a timeout nor a failed build, and the hardest lambda must
// reach the rung. The rung shares the primary's stagnation window and one
// iteration budget ("final iters" counts every attempt), and block Jacobi
// plateaus past the window at these penalties, so it need not converge. The
// binary exits nonzero if either check fails — CI runs it (tiny, under
// sanitizers) as the fallback smoke test; GEOFEM_BENCH_TINY=1 shrinks the
// mesh.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hpp"
#include "core/resilience.hpp"
#include "dist/dist_solver.hpp"
#include "part/partition.hpp"
#include "precond/bic.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace geofem;
  const char* tiny_env = std::getenv("GEOFEM_BENCH_TINY");
  const bool tiny = tiny_env && *tiny_env && std::string(tiny_env) != "0";
  const auto params = tiny                   ? mesh::SimpleBlockParams{4, 4, 3, 4, 4}
                      : bench::paper_scale() ? mesh::SimpleBlockParams{12, 12, 9, 12, 12}
                                             : mesh::SimpleBlockParams{6, 6, 4, 6, 6};
  const mesh::HexMesh m = mesh::simple_block(params);
  const auto bc = bench::simple_block_bc(m);

  obs::Registry reg;
  obs::Attach attach(&reg);
  bench::describe_problem(reg, m.num_dof());
  std::cout << "== Fallback-chain overhead vs direct SB-BIC(0), " << m.num_dof()
            << " DOF ==\n\n";

  util::Table table({"lambda", "path", "status", "attempts", "burnt iters", "final iters",
                     "time [s]", "overhead"});
  bool ok = true;
  bool any_fellback = false;
  bool any_dist_detour = false;

  for (double lambda : {1e10, 1e12}) {
    const fem::System sys = bench::assemble(m, bc, lambda);
    const auto sn = contact::build_supernodes(sys.a.n, m.contact_groups);

    // Direct solve with the preconditioner built for this regime.
    core::SolveConfig direct;
    direct.precond = core::PrecondKind::kSBBIC0;
    direct.penalty = lambda;
    direct.cg.max_iterations = 4000;
    direct.use_plan_cache = false;
    util::Timer td;
    const auto rd = core::solve_system(sys, sn, direct);
    const double t_direct = td.seconds();

    // Resilient solve that starts on the wrong preconditioner and has to
    // discover that at run time.
    core::SolveConfig fb = direct;
    fb.precond = core::PrecondKind::kBIC0;
    fb.resilience.enabled = true;
    util::Timer tf;
    const auto rf = core::solve_system(sys, sn, fb);
    const double t_fallback = tf.seconds();

    if (!rd.converged()) {
      std::cerr << "FAIL: direct SB-BIC(0) did not converge at lambda=" << lambda << "\n";
      ok = false;
    }
    // Whether a given lambda stalls BIC(0) outright or merely slows it to a
    // crawl depends on mesh size; the invariant is that the resilient run
    // always ends usable, and the hardest lambda actually takes the detour.
    if (!rf.converged()) {
      std::cerr << "FAIL: resilient BIC(0) pipeline failed at lambda=" << lambda
                << " (status: " << to_string(rf.status) << ")\n";
      ok = false;
    }
    any_fellback |= rf.status == SolveStatus::kFellBack;

    const double overhead = t_direct > 0.0 ? t_fallback / t_direct : 0.0;
    table.row({util::Table::sci(lambda, 0), "direct SB-BIC(0)", to_string(rd.status), "1", "0",
               std::to_string(rd.cg.iterations), util::Table::sci(t_direct, 2), "1.0x"});
    table.row({util::Table::sci(lambda, 0), "BIC(0)+fallback", to_string(rf.status),
               std::to_string(rf.attempts.size()), std::to_string(rf.fallback_iterations),
               std::to_string(rf.cg.iterations), util::Table::sci(t_fallback, 2),
               util::Table::fmt(overhead, 1) + "x"});
    reg.gauge("fallback.overhead.lambda_" + util::Table::sci(lambda, 0))->set(overhead);
    reg.gauge("fallback.burnt_iters.lambda_" + util::Table::sci(lambda, 0))
        ->set(rf.fallback_iterations);

    // The same resilient BIC(0) on 2 ranks: the distributed ladder's rung is
    // the localized block diagonal.
    const auto systems = part::distribute(sys.a, sys.b, part::rcb_contact_aware(m, 2));
    dist::DistOptions dopt;
    static_cast<core::SolveOptionsBase&>(dopt) = fb;
    dopt.threads = 1;
    dopt.telemetry = false;
    util::Timer tdist;
    const auto rdist = dist::solve_distributed(
        systems,
        [](const part::LocalSystem&, const sparse::BlockCSR& aii, precond::Precision precision) {
          return std::make_unique<precond::BIC0>(aii, precision);
        },
        dopt);
    const double t_dist = tdist.seconds();
    for (SolveStatus st : rdist.status_per_rank)
      if (st != rdist.status) {
        std::cerr << "FAIL: 2-rank ranks disagree at lambda=" << lambda << "\n";
        ok = false;
      }
    if (rdist.status == SolveStatus::kCommTimeout ||
        rdist.status == SolveStatus::kFactorizationFailed) {
      std::cerr << "FAIL: 2-rank resilient BIC(0) ended " << to_string(rdist.status)
                << " at lambda=" << lambda << "\n";
      ok = false;
    }
    // One built-in rung: any outcome but a direct convergence tried it.
    const bool detour = rdist.status != SolveStatus::kConverged;
    any_dist_detour |= detour;
    table.row({util::Table::sci(lambda, 0), "2-rank BIC(0)+fallback", to_string(rdist.status),
               detour ? "2" : "1", std::to_string(rdist.fallback_iterations),
               std::to_string(rdist.iterations), util::Table::sci(t_dist, 2),
               util::Table::fmt(t_direct > 0.0 ? t_dist / t_direct : 0.0, 1) + "x"});
    reg.gauge("fallback.dist_burnt_iters.lambda_" + util::Table::sci(lambda, 0))
        ->set(rdist.fallback_iterations);
  }

  table.print();
  bench::emit_json(reg, "fallback", argc, argv, {&table});
  if (!any_fellback || !any_dist_detour) {
    std::cerr << "FAIL: no lambda in the sweep exercised the "
              << (any_fellback ? "distributed" : "serial") << " fallback chain\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "\nfallback smoke FAILED\n";
    return 1;
  }
  std::cout << "\nfallback smoke passed (serial chain recovered through SB-BIC(0) at every "
               "lambda; 2-rank ladder reached the block diagonal in lockstep)\n";
  return 0;
}
