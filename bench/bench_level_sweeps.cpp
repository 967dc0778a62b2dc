// Natural-ordering hybrid SB-BIC(0) sweeps (DESIGN.md §5e): the supernode
// dependency-level schedules par::for_levels walks, and the time of one
// preconditioner apply and of one warm CG solve per OpenMP team size. The
// applies must be BIT-IDENTICAL across team sizes (exits nonzero otherwise).
// Mesh: the 8x6 Southwest-Japan-like model of the repository benchmark
// (3,699 DOF); GEOFEM_BENCH_SCALE=paper uses the 24x20 default model,
// GEOFEM_BENCH_TINY=1 a 4x3 one.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "par/par.hpp"
#include "plan/cache.hpp"
#include "precond/sb_bic0.hpp"
#include "util/timer.hpp"

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace geofem;
  const char* tiny_env = std::getenv("GEOFEM_BENCH_TINY");
  const bool tiny = tiny_env && *tiny_env && std::string(tiny_env) != "0";
  mesh::SouthwestJapanParams params;
  if (!bench::paper_scale()) {
    params.nx = tiny ? 4 : 8;
    params.ny = tiny ? 3 : 6;
  }
  const int blocks = tiny ? 3 : 15, applies = tiny ? 10 : 100, solves = tiny ? 3 : 20;
  const mesh::HexMesh m = mesh::southwest_japan_like(params);
  const double lambda = 1e6;
  const fem::System sys = bench::assemble(m, bench::swjapan_bc(m), lambda);
  const auto sn = contact::build_supernodes(sys.a.n, m.contact_groups);

  obs::Registry reg;
  obs::Attach attach(&reg);
  bench::describe_problem(reg, m.num_dof(), lambda);
  std::cout << "== Natural-ordering SB-BIC(0) level sweeps, " << m.num_dof() << " DOF ==\n\n";

  // Level-schedule shape: one-row levels leave all but one thread idle at
  // the level's barrier.
  const precond::SBBIC0 pc(sys.a, sn);
  util::Table shape({"sweep", "supernodes", "levels", "supernodes/level", "one-row levels",
                     "longest one-row run"});
  for (const auto* s : {&pc.forward_schedule(), &pc.backward_schedule()}) {
    int one = 0, run = 0, longest = 0;
    for (int l = 0; l < s->num_levels(); ++l) {
      run = s->level(l).size() == 1 ? run + 1 : 0;
      one += run > 0;
      longest = std::max(longest, run);
    }
    shape.row({s == &pc.forward_schedule() ? "forward" : "backward",
               std::to_string(s->rows.size()), std::to_string(s->num_levels()),
               util::Table::fmt(static_cast<double>(s->rows.size()) / s->num_levels(), 1),
               std::to_string(one), std::to_string(longest)});
  }
  shape.print();
  std::cout << "\n";

  util::Table table({"threads", "apply [us]", "solve [ms]", "iters", "bit-identical"});
  const std::vector<double> r(sys.b.begin(), sys.b.end());
  std::vector<double> z1;
  bool ok = true;
  for (int t : {1, 2}) {
    par::TeamScope team(t);
    std::vector<double> z(r.size());
    for (int i = 0; i < applies / 2; ++i) pc.apply(r, z, nullptr, nullptr);
    std::vector<double> per_apply;
    for (int b = 0; b < blocks; ++b) {
      util::Timer timer;
      for (int i = 0; i < applies; ++i) pc.apply(r, z, nullptr, nullptr);
      per_apply.push_back(timer.seconds() / applies * 1e6);
    }
    if (t == 1) z1 = z;
    const bool identical = z == z1;
    ok = ok && identical;

    plan::PlanCache cache;
    core::SolveConfig cfg;
    cfg.precond = core::PrecondKind::kSBBIC0;
    cfg.penalty = lambda;
    cfg.threads = t;
    cfg.plan_cache = &cache;
    std::vector<double> lat;
    int iters = 0;
    for (int i = 0; i < solves + 2; ++i) {  // the first two warm the plan and caches
      util::Timer timer;
      const auto rep = core::solve_system(sys, sn, cfg);
      if (i >= 2) lat.push_back(timer.seconds() * 1e3);
      iters = rep.cg.iterations;
      ok = ok && rep.converged();
    }
    table.row({std::to_string(t), util::Table::fmt(median(per_apply), 1),
               util::Table::fmt(median(lat), 2), std::to_string(iters),
               identical ? "yes" : "NO"});
    reg.gauge("level_sweeps.apply_us.threads_" + std::to_string(t))->set(median(per_apply));
    reg.gauge("level_sweeps.solve_ms.threads_" + std::to_string(t))->set(median(lat));
  }
  table.print();
  bench::emit_json(reg, "level_sweeps", argc, argv, {&shape, &table});
  if (!ok) {
    std::cerr << "\nlevel sweeps FAILED (not converged, or threads=2 not bit-identical)\n";
    return 1;
  }
  std::cout << "\nlevel sweeps passed (applies bit-identical across team sizes)\n";
  return 0;
}
