// The distributed stack of the traced run: flat-MPI style on the simple
// block model. Two in-process ranks x 1 thread, contact-aware RCB partition,
// localized SB-BIC(0) from dist::make_plan_factory, classic CG with halo
// overlap, through dist::solve_distributed. The only stack with halo
// exchange and allreduces on the blocking path.
//
// It is not an end-to-end workload: every halo exchange and allreduce wakes a
// rank thread through a condition variable, and on a shared virtualized host
// each wake-up can wait for the vCPU to be rescheduled. Per-run medians of
// the solve time then spread by a factor of two (IQR 47% of the median over
// ten seeds), beyond any usable regression bound.

#include <cstring>
#include <memory>

#include "dist/dist_solver.hpp"
#include "mesh/simple_block.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/cache.hpp"
#include "workloads.hpp"

namespace pb {

namespace gf = geofem;

namespace {

constexpr int kRanks = 2;
constexpr double kLambdas[] = {1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
constexpr int kNumLambdas = 9;
/// CG iterations per λ recorded on the seed code.
constexpr int kRecordedIterations[kNumLambdas] = {86, 86, 86, 86, 86, 86, 86, 86, 87};

gf::mesh::SimpleBlockParams params(bool tiny) {
  // 12/12/9/12/12: 19,890 DOF (the small-scale Table 2 block)
  return tiny ? gf::mesh::SimpleBlockParams{4, 4, 3, 4, 4}
              : gf::mesh::SimpleBlockParams{12, 12, 9, 12, 12};
}

gf::plan::PlanConfig plan_config() {
  gf::plan::PlanConfig c;
  c.precond = gf::plan::PrecondKind::kSBBIC0;
  return c;
}

gf::dist::DistOptions dist_options(gf::plan::PlanCache* cache) {
  gf::dist::DistOptions o;
  o.threads = 1;
  o.overlap = true;
  o.telemetry = false;
  o.plan_cache = cache;
  return o;
}

struct Inputs {
  double scale;
  int rotation;
};

Inputs seeded_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0xD15717ULL);
  Inputs in;
  in.scale = seeded_load_scale(rng, -2, 2);
  in.rotation = rng.below(kNumLambdas);
  return in;
}

struct Model : BaseModel {
  gf::part::Partition part;
  std::unique_ptr<gf::plan::PlanCache> cache;
  gf::dist::PrecondFactory factory;
  std::vector<gf::part::LocalSystem> local;
};

/// Cold set-up: mesh generation through partitioning and distribution, plus
/// the first cold per-rank plan build.
Model cold_setup(bool tiny, double lambda, double scale, Trace* tr, int op) {
  Model m;
  Scoped root(tr, "setup", op, -1);
  static_cast<BaseModel&>(m) = build_model(
      [&] { return gf::mesh::simple_block(params(tiny)); }, simple_block_bc, lambda, scale, tr,
      op, root.idx());
  {
    Scoped s(tr, "part.partition", op, root.idx());
    m.part = gf::part::rcb_contact_aware(m.mesh, kRanks);
    m.local = gf::part::distribute(m.sys.a, m.sys.b, m.part);
  }
  {
    Scoped s(tr, "dist.plan_build", op, root.idx());
    m.cache = std::make_unique<gf::plan::PlanCache>();
    m.factory = gf::dist::make_plan_factory(*m.cache, plan_config(), m.mesh.contact_groups);
    for (const auto& ls : m.local)
      (void)m.factory(ls, ls.internal_matrix(), gf::precond::Precision::kDouble);
  }
  return m;
}

void update(Model& m, double lambda, double scale) {
  make_system(m.base, m.mesh.contact_groups, lambda, m.bc, scale, m.sys);
  m.local = gf::part::distribute(m.sys.a, m.sys.b, m.part);
}

void check(Result& res, const Model& m, const gf::dist::DistResult& r,
           const std::vector<double>& x, int li, bool tiny) {
  const ResidualCheck rc = true_residual(m.sys.a, m.sys.b, x, 1e-8);
  const bool iters_ok = tiny || r.iterations == kRecordedIterations[li];
  res.op(r.converged() && iters_ok && rc.ok(),
         "dist lambda=" + std::to_string(kLambdas[li]) + " status=" + gf::to_string(r.status) +
             " iterations=" + std::to_string(r.iterations) +
             " true_residual=" + std::to_string(rc.rel) + " bound=" + std::to_string(rc.bound));
}

}  // namespace

void dist2_trace(const Options& opt, double seconds, Trace& tr, Result& res) {
  const Inputs in = seeded_inputs(opt.seed);
  const int setup_op = tr.new_op();
  Model m = cold_setup(opt.tiny, kLambdas[in.rotation], in.scale, &tr, setup_op);
  res.metric("part.partition_s", median(tr.durations_ms("part.partition", setup_op)) * 1e-3, "s");
  const int split = gf::part::split_contact_groups(m.mesh, m.part);
  res.metric("part.split_groups", split, "count");
  if (split != 0) res.fail("dist: the contact-aware partition split a contact group");

  const gf::dist::DistOptions dopt = dist_options(m.cache.get());
  auto li_at = [&](int i) { return (in.rotation + i) % kNumLambdas; };

  // Untraced and traced solves of the same system, alternating order. The
  // traced one decorates every rank's preconditioner; both must agree.
  std::vector<double> traced_wall, untraced_wall, unattributed, setup_max, imbalance;
  std::vector<double> apply_ms;
  gf::dist::DistResult first;
  std::vector<double> x_plain, x_traced;
  const double t0 = now_s();
  for (int i = 0; i == 0 || now_s() - t0 < seconds; ++i) {
    const int li = li_at(i);
    update(m, kLambdas[li], in.scale);
    const int op = tr.new_op();
    int root = -1;
    gf::dist::DistResult plain, traced;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (i % 2 == 0)) {
        const double a = now_s();
        plain = gf::dist::solve_distributed(m.local, m.factory, dopt, &x_plain);
        untraced_wall.push_back(now_s() - a);
      } else {
        root = tr.begin("dist.solve", op, -1);
        const int parent = root;
        gf::dist::PrecondFactory timed = [&](const gf::part::LocalSystem& ls,
                                             const gf::sparse::BlockCSR& aii,
                                             gf::precond::Precision p) {
          const int s = tr.begin("dist.precond_setup", op, parent, ls.domain + 1);
          auto inner = m.factory(ls, aii, p);
          tr.end(s);
          return std::make_unique<TimedPrecond>(std::move(inner), tr, op, parent, ls.domain + 1);
        };
        traced = gf::dist::solve_distributed(m.local, timed, dopt, &x_traced);
        tr.end(root);
        traced_wall.push_back(tr.dur_ms(root) * 1e-3);
      }
    }
    check(res, m, plain, x_plain, li, opt.tiny);
    if (traced.iterations != plain.iterations || x_traced.size() != x_plain.size() ||
        std::memcmp(x_traced.data(), x_plain.data(), x_plain.size() * sizeof(double)) != 0)
      res.fail("dist trace equivalence: decorated solve differs from dist::solve_distributed");
    if (i == 0) first = plain;
    unattributed.push_back(tr.self_ms(root));
    setup_max.push_back(traced.setup_seconds_max * 1e3);
    std::vector<double> per_rank(kRanks, 0.0);
    for (const auto& s : tr.spans())
      if (s.op == op && s.name == "precond.apply") {
        per_rank[static_cast<std::size_t>(s.tid - 1)] += s.dur_us;
        apply_ms.push_back(s.dur_us * 1e-3);
      }
    double mx = 0.0, sum = 0.0;
    for (double v : per_rank) {
      mx = std::max(mx, v);
      sum += v;
    }
    imbalance.push_back(mx / (sum / kRanks));
  }

  // Exact traffic per CG iteration, averaged over ranks.
  double msgs = 0.0, bytes = 0.0, allreduces = 0.0;
  for (const auto& t : first.traffic_per_rank) {
    msgs += static_cast<double>(t.messages_sent);
    bytes += static_cast<double>(t.bytes_sent);
    allreduces += static_cast<double>(t.allreduces);
  }
  const double per_iter = static_cast<double>(kRanks) * first.iterations;
  res.metric("dist.setup_max_ms", median(setup_max), "ms");
  res.metric("dist.apply_ms", median(apply_ms), "ms");
  res.metric("dist.apply_imbalance", median(imbalance), "ratio");
  res.metric("dist.messages_per_iter", msgs / per_iter, "count");
  res.metric("dist.bytes_per_iter", bytes / per_iter, "B");
  res.metric("dist.allreduces_per_iter", allreduces / per_iter, "count");
  res.metric("dist.unattributed_ms", median(unattributed), "ms");
  res.metric("dist.overhead_frac", median(traced_wall) / median(untraced_wall) - 1.0, "ratio");
  note("dist traced: " + std::to_string(traced_wall.size()) + " solves, " +
       std::to_string(apply_ms.size()) + " rank applies");

  // Halo payload of the probe: the mean send list of the partition, 3 DOF/node.
  std::size_t halo_nodes = 0, links = 0;
  for (const auto& ls : m.local)
    for (const auto& l : ls.links) {
      halo_nodes += l.send_local.size();
      ++links;
    }
  probe_comm(links ? 3 * halo_nodes / links : 3, res);
}

}  // namespace pb
