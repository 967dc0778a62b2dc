// Cold set-up, layer by layer (DESIGN.md "Set-up pipeline"): the median time
// of each stage that turns a mesh into a solve-ready preconditioner, for the
// two models of the repository benchmark —
//   swj_pdjds: Southwest-Japan-like 8x6 (3,699 DOF), SB-BIC(0) on PDJDS/MC,
//              plan built on 2 threads;
//   svc_mixed: simple block 6/6/4/6/6 (2,835 DOF), natural-ordering SB-BIC(0).
// Stages: mesh generation, stiffness pattern, element kernel (all element
// matrices, timed alone), scatter (fem::add_element_stiffness, which calls the
// kernel, minus the kernel alone), penalty + BCs,
// adjacency/quotient graph + MC colouring, DJDS build, plan (symbolic: for
// PDJDS it contains the colouring and the DJDS build again), first numeric.
// Every stage is repeated `reps` times, interleaved, and the median printed.
// GEOFEM_BENCH_TINY=1 runs 4x3 and 3/3/2/3/3 models with few repetitions and
// is the CI smoke; it exits nonzero unless every repetition produced the same
// matrix and the plans solve.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <malloc.h>
#include <string>
#include <vector>

#include "common.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "util/timer.hpp"

namespace {

using namespace geofem;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Model {
  std::string name;
  mesh::HexMesh (*make_mesh)(bool tiny);
  fem::BoundaryConditions (*bc)(const mesh::HexMesh&);
  plan::OrderingKind ordering;
  core::OrderingKind solve_ordering;
  int threads;
};

mesh::HexMesh swj_mesh(bool tiny) {
  mesh::SouthwestJapanParams p;
  p.nx = tiny ? 4 : 8;
  p.ny = tiny ? 3 : 6;
  return mesh::southwest_japan_like(p);
}

mesh::HexMesh block_mesh(bool tiny) {
  return mesh::simple_block(tiny ? mesh::SimpleBlockParams{3, 3, 2, 3, 3}
                                 : mesh::SimpleBlockParams{6, 6, 4, 6, 6});
}

const char* const kStages[] = {"mesh",          "pattern",           "element kernel",
                               "scatter",       "penalty + BCs",     "graph + colouring",
                               "DJDS build",    "plan (symbolic)",   "first numeric",
                               "total"};
constexpr int kNumStages = 10;

}  // namespace

int main(int argc, char** argv) {
  // The allocator settings of the repository benchmark (perfbench/README.md):
  // freed memory stays in the process, so a repetition's arrays reuse pages
  // instead of faulting fresh ones in, as in perfbench's cold set-ups.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);
  const char* tiny_env = std::getenv("GEOFEM_BENCH_TINY");
  const bool tiny = tiny_env && *tiny_env && std::string(tiny_env) != "0";
  const int reps = tiny ? 3 : 40;
  const double lambda = 1e6;
  const std::vector<Model> models = {
      {"swj_pdjds", swj_mesh, bench::swjapan_bc, plan::OrderingKind::kPDJDSMC,
       core::OrderingKind::kPDJDSMC, 2},
      {"svc_mixed", block_mesh, bench::simple_block_bc, plan::OrderingKind::kNatural,
       core::OrderingKind::kNatural, 1}};

  obs::Registry reg;
  bench::describe_problem(reg, 0, lambda);
  std::cout << "== Cold set-up by stage, median of " << reps << " [ms] ==\n\n";

  // times[model][stage][rep]
  std::vector<std::vector<std::vector<double>>> times(
      models.size(), std::vector<std::vector<double>>(kNumStages));
  std::vector<int> dofs(models.size());
  bool ok = true;
  std::vector<sparse::BlockCSR> first(models.size());
  for (int r = 0; r < reps; ++r) {
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      const Model& md = models[mi];
      auto& t = times[mi];
      par::TeamScope team(md.threads);
      util::Timer timer;
      const mesh::HexMesh m = md.make_mesh(tiny);
      t[0].push_back(timer.seconds() * 1e3);

      timer = util::Timer();
      double ke[24 * 24];
      for (const auto& h : m.hexes) {
        std::array<std::array<double, 3>, 8> xyz;
        for (std::size_t v = 0; v < 8; ++v)
          xyz[v] = m.coords[static_cast<std::size_t>(h[v])];
        fem::hex_stiffness(xyz, {1.0, 0.3}, ke);
      }
      const double kernel_ms = timer.seconds() * 1e3;
      timer = util::Timer();
      fem::System sys;
      sys.a = fem::elasticity_pattern(m);
      const double pattern_ms = timer.seconds() * 1e3;
      timer = util::Timer();
      fem::add_element_stiffness(m, {{1.0, 0.3}}, sys.a);
      sys.b.assign(sys.a.ndof(), 0.0);
      const double values_ms = timer.seconds() * 1e3;
      t[1].push_back(pattern_ms);
      t[2].push_back(kernel_ms);
      t[3].push_back(values_ms - kernel_ms);

      timer = util::Timer();
      contact::add_penalty(sys.a, m.contact_groups, lambda);
      fem::apply_boundary_conditions(sys, md.bc(m));
      t[4].push_back(timer.seconds() * 1e3);
      dofs[mi] = static_cast<int>(sys.a.ndof());
      if (r == 0) {
        first[mi] = sys.a;
      } else {
        ok = ok && sys.a.val.size() == first[mi].val.size() &&
             std::memcmp(sys.a.val.data(), first[mi].val.data(),
                         sys.a.val.size() * sizeof(double)) == 0;
      }

      const auto sn = contact::build_supernodes(sys.a.n, m.contact_groups);
      plan::PlanConfig cfg;
      cfg.precond = plan::PrecondKind::kSBBIC0;
      cfg.ordering = md.ordering;
      timer = util::Timer();
      const sparse::Graph g = sparse::graph_of(sys.a);
      const sparse::Graph q = reorder::quotient_graph(g, sn.node_to_super, sn.count());
      const reorder::Coloring coloring = reorder::lift_coloring(
          reorder::multicolor(q, cfg.colors), sn.node_to_super, sys.a.n);
      t[5].push_back(timer.seconds() * 1e3);
      timer = util::Timer();
      reorder::DJDSOptions dopt;
      dopt.npe = cfg.npe;
      const reorder::DJDSMatrix dj(sys.a, coloring, &sn, dopt);
      t[6].push_back(timer.seconds() * 1e3);

      timer = util::Timer();
      const plan::SolvePlan pl(sys.a, sn, cfg);
      t[7].push_back(timer.seconds() * 1e3);
      timer = util::Timer();
      (void)pl.numeric(sys.a);
      t[8].push_back(timer.seconds() * 1e3);
      // Stages 5 and 6 are inside the plan for PDJDS and not on the
      // natural-ordering path, so the total leaves them out.
      t[9].push_back(t[0].back() + pattern_ms + values_ms + t[4].back() + t[7].back() +
                     t[8].back());

      if (r == 0) {
        core::SolveConfig scfg;
        scfg.precond = core::PrecondKind::kSBBIC0;
        scfg.ordering = md.solve_ordering;
        scfg.threads = md.threads;
        ok = ok && core::solve_system(sys, sn, scfg).converged();
      }
    }
  }

  std::vector<std::string> headers = {"stage"};
  for (std::size_t mi = 0; mi < models.size(); ++mi)
    headers.push_back(models[mi].name + " (" + std::to_string(dofs[mi]) + " DOF)");
  util::Table table(headers);
  for (int s = 0; s < kNumStages; ++s) {
    std::vector<std::string> row = {kStages[s]};
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      const double med = median(times[mi][static_cast<std::size_t>(s)]);
      row.push_back(util::Table::fmt(med, 3));
      std::string key = kStages[s];
      std::replace(key.begin(), key.end(), ' ', '_');
      key.erase(std::remove_if(key.begin(), key.end(),
                               [](char c) { return c == '(' || c == ')' || c == '+'; }),
                key.end());
      reg.gauge("setup." + models[mi].name + "." + key + "_ms")->set(med);
    }
    table.row(row);
  }
  table.print();
  std::cout << "\nscatter = element values - element kernel; total = mesh + assembly + "
               "penalty/BCs + plan + first numeric (the perfbench cold set-up without its "
               "plan-cache lookup)\n";
  bench::emit_json(reg, "setup", argc, argv, {&table});
  if (!ok) {
    std::cerr << "\nset-up bench FAILED (matrix differs between repetitions, or a plan did not "
                 "solve)\n";
    return 1;
  }
  std::cout << "\nset-up bench passed\n";
  return 0;
}
