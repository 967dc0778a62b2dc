// Cold set-up, layer by layer (DESIGN.md "Set-up pipeline"): the median time
// of each stage that turns a mesh into a solve-ready preconditioner, for the
// two models of the repository benchmark —
//   swj_pdjds: Southwest-Japan-like 8x6 (3,699 DOF), SB-BIC(0) on PDJDS/MC;
//   svc_mixed: simple block 6/6/4/6/6 (2,835 DOF), natural-ordering SB-BIC(0)
// — each at team 1 and team 2 (par::TeamScope around the whole set-up), with
// the team-1 / team-2 ratio. Stages: mesh generation, assembly
// (fem::assemble_elasticity: pattern and element matrices), penalty + BCs,
// adjacency/quotient graph + MC colouring, DJDS build, plan (symbolic: for
// PDJDS it contains the colouring and the DJDS build again), first numeric.
// Every stage is repeated `reps` times, interleaved over models and teams,
// and the median printed. GEOFEM_BENCH_TINY=1 runs 4x3 and 3/3/2/3/3 models
// with few repetitions and is the CI smoke; it exits nonzero unless every
// repetition produced the same matrix, both teams produced bitwise-identical
// matrices, DJDS arrays and factors, and the plans solve.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <malloc.h>
#include <string>
#include <vector>

#include "common.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
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

const char* const kStages[] = {"mesh",         "assembly",        "penalty + BCs",
                               "graph + colouring", "DJDS build", "plan (symbolic)",
                               "first numeric", "total"};
constexpr int kNumStages = 8;
constexpr int kTeams[] = {1, 2};
constexpr int kNumTeams = 2;

/// Every array one set-up produced (matrix, right-hand side, DJDS layout and
/// values, factors, packs), for a bitwise comparison across teams.
struct Snapshot {
  std::vector<double> d;
  std::vector<int> i;
  void add(const double* p, std::size_t n) { d.insert(d.end(), p, p + n); }
  void add(const std::vector<int>& v) { i.insert(i.end(), v.begin(), v.end()); }
  void add(const std::vector<sparse::DenseLU>& lus) {
    for (const auto& lu : lus) {
      add(lu.factor(), static_cast<std::size_t>(lu.size()) * static_cast<std::size_t>(lu.size()));
      add(lu.pivots());
    }
  }
  bool operator==(const Snapshot& o) const {
    return d.size() == o.d.size() && i.size() == o.i.size() &&
           std::memcmp(d.data(), o.d.data(), d.size() * sizeof(double)) == 0 &&
           std::memcmp(i.data(), o.i.data(), i.size() * sizeof(int)) == 0;
  }
};

void add_djds(Snapshot& s, const reorder::DJDSMatrix& dj) {
  s.add(dj.perm());
  s.add(dj.chunk_begin());
  s.add(dj.diag(0), static_cast<std::size_t>(dj.n()) * sparse::kBB);
  for (std::size_t r = 0; r < dj.super_ranges().size(); ++r) {
    const auto& dense = dj.super_dense(static_cast<int>(r));
    s.add(dense.data(), dense.size());
  }
  for (int ch = 0; ch < dj.num_colors() * dj.npe(); ++ch)
    for (const reorder::Jagged* p : {&dj.lower(ch), &dj.upper(ch)}) {
      s.add(p->jd_ptr);
      s.add(p->item);
      s.add(p->src);
      s.add(p->val.data(), p->val.size());
    }
}

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
       core::OrderingKind::kPDJDSMC},
      {"svc_mixed", block_mesh, bench::simple_block_bc, plan::OrderingKind::kNatural,
       core::OrderingKind::kNatural}};

  obs::Registry reg;
  bench::describe_problem(reg, 0, lambda);
  std::cout << "== Cold set-up by stage, median of " << reps << " [ms], team 1 and team 2 ==\n\n";

  // times[model][team][stage][rep]
  std::vector<std::vector<std::vector<std::vector<double>>>> times(
      models.size(), std::vector<std::vector<std::vector<double>>>(
                         kNumTeams, std::vector<std::vector<double>>(kNumStages)));
  std::vector<int> dofs(models.size());
  bool ok = true, teams_ok = true;
  std::vector<sparse::BlockCSR> first(models.size());
  std::vector<std::vector<Snapshot>> snaps(models.size(), std::vector<Snapshot>(kNumTeams));
  for (int r = 0; r < reps; ++r) {
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      for (int ti = 0; ti < kNumTeams; ++ti) {
        const Model& md = models[mi];
        auto& t = times[mi][static_cast<std::size_t>(ti)];
        par::TeamScope team(kTeams[ti]);
        util::Timer timer;
        const mesh::HexMesh m = md.make_mesh(tiny);
        t[0].push_back(timer.seconds() * 1e3);

        timer = util::Timer();
        fem::System sys = fem::assemble_elasticity(m, {{1.0, 0.3}});
        t[1].push_back(timer.seconds() * 1e3);

        timer = util::Timer();
        contact::add_penalty(sys.a, m.contact_groups, lambda);
        fem::apply_boundary_conditions(sys, md.bc(m));
        t[2].push_back(timer.seconds() * 1e3);
        dofs[mi] = static_cast<int>(sys.a.ndof());
        if (r == 0 && ti == 0) {
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
        t[3].push_back(timer.seconds() * 1e3);
        timer = util::Timer();
        reorder::DJDSOptions dopt;
        dopt.npe = cfg.npe;
        const reorder::DJDSMatrix dj(sys.a, coloring, &sn, dopt);
        t[4].push_back(timer.seconds() * 1e3);

        timer = util::Timer();
        const plan::SolvePlan pl(sys.a, sn, cfg);
        t[5].push_back(timer.seconds() * 1e3);
        timer = util::Timer();
        const auto prec = pl.numeric(sys.a);
        t[6].push_back(timer.seconds() * 1e3);
        // Stages 3 and 4 are inside the plan for PDJDS and not on the
        // natural-ordering path, so the total leaves them out.
        t[7].push_back(t[0].back() + t[1].back() + t[2].back() + t[5].back() + t[6].back());

        if (r == 0) {
          Snapshot& s = snaps[mi][static_cast<std::size_t>(ti)];
          s.add(sys.a.val.data(), sys.a.val.size());
          s.add(sys.b.data(), sys.b.size());
          add_djds(s, dj);
          if (const auto* pdj = pl.djds()) {
            add_djds(s, *pdj);
            const auto& djbic = dynamic_cast<const precond::DJDSBIC&>(*prec);
            s.add(djbic.unit_factors());
            for (const auto& pk : djbic.singleton_packs()) {
              s.add(pk.coef.data(), pk.coef.size());
              s.add(pk.start);
              s.add(pk.cnt);
            }
          } else {
            s.add(precond::sb_factor_numeric(sys.a, *precond::sb_symbolic(sys.a, sn)));
          }
          if (ti > 0) teams_ok = teams_ok && s == snaps[mi][0];
          core::SolveConfig scfg;
          scfg.precond = core::PrecondKind::kSBBIC0;
          scfg.ordering = md.solve_ordering;
          scfg.threads = kTeams[ti];
          ok = ok && core::solve_system(sys, sn, scfg).converged();
        }
      }
    }
  }

  std::vector<std::string> headers = {"stage"};
  for (std::size_t mi = 0; mi < models.size(); ++mi)
    for (const char* col : {" team 1", " team 2", " 1/2"})
      headers.push_back(models[mi].name + col);
  util::Table table(headers);
  for (int s = 0; s < kNumStages; ++s) {
    std::vector<std::string> row = {kStages[s]};
    std::string key = kStages[s];
    std::replace(key.begin(), key.end(), ' ', '_');
    key.erase(std::remove_if(key.begin(), key.end(),
                             [](char c) { return c == '(' || c == ')' || c == '+'; }),
              key.end());
    for (std::size_t mi = 0; mi < models.size(); ++mi) {
      double med[kNumTeams];
      for (int ti = 0; ti < kNumTeams; ++ti) {
        med[ti] = median(times[mi][static_cast<std::size_t>(ti)][static_cast<std::size_t>(s)]);
        row.push_back(util::Table::fmt(med[ti], 3));
        reg.gauge("setup." + models[mi].name + "." + key + "_t" + std::to_string(kTeams[ti]) +
                  "_ms")
            ->set(med[ti]);
      }
      const double ratio = med[1] > 0.0 ? med[0] / med[1] : 0.0;
      row.push_back(util::Table::fmt(ratio, 2));
      reg.gauge("setup." + models[mi].name + "." + key + "_ratio")->set(ratio);
    }
    table.row(row);
  }
  table.print();
  std::cout << "\nassembly = fem::assemble_elasticity (pattern + element matrices); total = "
               "mesh + assembly + penalty/BCs + plan + first numeric (the perfbench cold set-up "
               "without its plan-cache lookup); 1/2 = team-1 time / team-2 time\n";
  std::cout << "teams 1 and 2 bitwise identical (matrix, DJDS arrays, factors): "
            << (teams_ok ? "yes" : "NO") << "\n";
  bench::emit_json(reg, "setup", argc, argv, {&table});
  if (!ok || !teams_ok) {
    std::cerr << "\nset-up bench FAILED (matrix differs between repetitions, teams 1 and 2 "
                 "differ, or a plan did not solve)\n";
    return 1;
  }
  std::cout << "\nset-up bench passed\n";
  return 0;
}
