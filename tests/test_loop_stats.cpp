// Loop-length histogram suite (ctest label `loops`): util::LoopStats against
// a per-entry reference on seeded streams, the bounded size of a CG solve's
// and a service response's loop statistics, and the ES machine model on the
// histogram against the per-entry sum it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "perf/es_model.hpp"
#include "precond/djds_bic.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "solver/cg.hpp"
#include "svc/service.hpp"
#include "util/loop_stats.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gp = geofem::precond;
namespace gr = geofem::reorder;
namespace gs = geofem::sparse;
namespace gsvc = geofem::svc;
namespace gutil = geofem::util;

namespace {

/// Every record in execution order: the log LoopStats kept before it became
/// a histogram.
struct PerEntry {
  std::vector<gutil::LoopStats::Entry> log;

  void record(std::int64_t length, std::int64_t times) {
    if (length > 0 && times > 0) log.push_back({length, times});
  }
};

/// A seeded stream of (length, times) records drawn from a few dozen
/// lengths, with the occasional non-positive one that both sides ignore.
std::vector<gutil::LoopStats::Entry> random_stream(std::uint64_t seed, int records) {
  gutil::Rng rng(seed);
  std::vector<gutil::LoopStats::Entry> s;
  for (int i = 0; i < records; ++i) {
    const auto length = static_cast<std::int64_t>(rng.next_below(40)) - 2;
    const auto times = static_cast<std::int64_t>(rng.next_below(5));
    s.push_back({length, times});
  }
  return s;
}

void expect_matches(const gutil::LoopStats& h, const PerEntry& ref) {
  std::map<std::int64_t, std::int64_t> by_length;
  std::int64_t count = 0, total = 0, lo = 0, hi = 0;
  for (const auto& e : ref.log) {
    by_length[e.length] += e.times;
    count += e.times;
    total += e.length * e.times;
    lo = count == e.times ? e.length : std::min(lo, e.length);
    hi = std::max(hi, e.length);
  }
  EXPECT_EQ(h.count(), count);
  EXPECT_EQ(h.total_length(), total);
  EXPECT_EQ(h.min_length(), lo);
  EXPECT_EQ(h.max_length(), hi);
  EXPECT_EQ(h.average(),
            count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count));
  ASSERT_EQ(h.entries().size(), by_length.size());
  auto it = by_length.begin();
  for (const auto& e : h.entries()) {  // sorted, unique, summed per length
    EXPECT_EQ(e.length, it->first);
    EXPECT_EQ(e.times, it->second);
    ++it;
  }
}

struct Fixture {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes sn;
  gr::Coloring coloring;

  Fixture() {
    mesh = gm::simple_block({3, 3, 2, 3, 3});
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, 1e6);
    gf::apply_boundary_conditions(sys, boundary(mesh));
    sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
    const auto q = gr::quotient_graph(gs::graph_of(sys.a), sn.node_to_super, sn.count());
    coloring = gr::lift_coloring(gr::multicolor(q, 4), sn.node_to_super, sys.a.n);
  }

  static gf::BoundaryConditions boundary(const gm::HexMesh& m) {
    gf::BoundaryConditions bc;
    bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = m.bounding_box().hi[2];
    bc.surface_load(
        m, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    return bc;
  }
};

/// Forwards to a preconditioner and counts the applies.
class CountingPrecond final : public gp::Preconditioner {
 public:
  explicit CountingPrecond(const gp::Preconditioner& inner) : inner_(inner) {}
  void apply(std::span<const double> r, std::span<double> z, gutil::FlopCounter* flops,
             gutil::LoopStats* loops) const override {
    ++calls;
    inner_.apply(r, z, flops, loops);
  }
  [[nodiscard]] std::size_t memory_bytes() const override { return inner_.memory_bytes(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  mutable int calls = 0;

 private:
  const gp::Preconditioner& inner_;
};

}  // namespace

TEST(LoopHistogram, MatchesPerEntryReferenceOnSeededStreams) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 17u}) {
    gutil::LoopStats h;
    PerEntry ref;
    for (const auto& e : random_stream(seed, 2000)) {
      h.record(e.length, e.times);
      ref.record(e.length, e.times);
    }
    expect_matches(h, ref);
  }
}

TEST(LoopHistogram, MergeEqualsRecordingEachEntry) {
  for (const std::uint64_t seed : {5u, 6u, 7u}) {
    gutil::LoopStats merged, recorded;
    PerEntry ref;
    // Alternate direct records and merges of sub-streams, so merge meets both
    // existing and new lengths on either side of the current range.
    for (int part = 0; part < 6; ++part) {
      gutil::LoopStats piece;
      for (const auto& e : random_stream(seed * 100 + static_cast<std::uint64_t>(part), 300)) {
        if (part % 2 == 0) {
          merged.record(e.length, e.times);
        } else {
          piece.record(e.length, e.times);
        }
        recorded.record(e.length, e.times);
        ref.record(e.length, e.times);
      }
      merged.merge(piece);
    }
    merged.merge(gutil::LoopStats{});
    expect_matches(merged, ref);
    expect_matches(recorded, ref);
  }
}

TEST(LoopHistogram, PdjdsSolveStatsBoundedAndCountedPerCall) {
  const Fixture f;
  const gr::DJDSMatrix dj(f.sys.a, f.coloring, &f.sn, {});
  const gp::DJDSBIC m(f.sys.a, dj);
  const std::size_t n = f.sys.a.ndof();

  // Loops of one SpMV and of one apply.
  std::vector<double> v(n, 1.0), w(n);
  gutil::LoopStats one_spmv, one_apply;
  dj.spmv(v, w, nullptr, &one_spmv);
  m.apply(v, w, nullptr, &one_apply);

  struct Run {
    int iterations, spmvs, applies;
    gutil::LoopStats loops;
  };
  auto run = [&](int max_iterations) {
    geofem::solver::CGOptions opt;
    opt.tolerance = 1e-30;  // never met: the budget ends the solve
    opt.max_iterations = max_iterations;
    CountingPrecond cm(m);
    int spmvs = 0;
    std::vector<double> x(n, 0.0);
    auto res = geofem::solver::pcg(
        [&](std::span<const double> in, std::span<double> out, gutil::FlopCounter* fc,
            gutil::LoopStats* ls) {
          ++spmvs;
          dj.spmv(in, out, fc, ls);
        },
        cm, f.sys.b, x, opt);
    return Run{res.iterations, spmvs, cm.calls, res.loops};
  };
  const Run short_run = run(5);
  const Run long_run = run(40);
  ASSERT_EQ(short_run.iterations, 5);
  ASSERT_EQ(long_run.iterations, 40);

  // The histogram's size depends on the kernels' structure, not on how long
  // the solve ran...
  EXPECT_EQ(short_run.loops.entries().size(), long_run.loops.entries().size());
  EXPECT_LE(long_run.loops.entries().size(),
            one_spmv.entries().size() + one_apply.entries().size());
  // ...while every call still adds exactly its loops.
  for (const Run* r : {&short_run, &long_run}) {
    EXPECT_EQ(r->loops.count(), r->spmvs * one_spmv.count() + r->applies * one_apply.count());
    EXPECT_EQ(r->loops.total_length(),
              r->spmvs * one_spmv.total_length() + r->applies * one_apply.total_length());
  }
  EXPECT_GT(long_run.spmvs, short_run.spmvs);
  EXPECT_GT(long_run.applies, short_run.applies);
}

TEST(LoopHistogram, ServiceResponseStatsBounded) {
  const gm::HexMesh mesh = gm::simple_block({3, 3, 2, 3, 3});
  gsvc::ServiceOptions opt;
  opt.workers = 1;
  opt.solve.precond = geofem::core::PrecondKind::kSBBIC0;
  gsvc::SolverService svc(opt);
  const gsvc::ModelId model = svc.register_model(mesh, {{1.0, 0.3}}, Fixture::boundary(mesh));

  gsvc::SolveRequest req;
  req.model = model;
  req.priority = gsvc::Priority::kInteractive;
  req.lambda = 1e4;
  req.tolerance = 1e-3;
  const gsvc::SolveResponse loose = svc.submit(req).get();
  req.tolerance = 1e-10;
  const gsvc::SolveResponse tight = svc.submit(req).get();
  ASSERT_TRUE(loose.accepted() && tight.accepted());
  ASSERT_LT(loose.report.cg.iterations, tight.report.cg.iterations);

  const auto& lo = loose.report.cg.loops;
  const auto& hi = tight.report.cg.loops;
  EXPECT_GT(hi.count(), lo.count());
  EXPECT_EQ(lo.entries().size(), hi.entries().size());
  // Distinct lengths are bounded by the model (row lengths, coupling-list
  // lengths), far below the loops executed.
  EXPECT_LT(static_cast<std::int64_t>(hi.entries().size()), hi.count() / 100);
}

TEST(LoopHistogram, EsModelVectorSecondsMatchesPerEntrySum) {
  const geofem::perf::EsModel es;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    gutil::LoopStats h;
    PerEntry ref;
    for (const auto& e : random_stream(seed, 2000)) {
      h.record(e.length, e.times);
      ref.record(e.length, e.times);
    }
    for (const double fpe : {2.0 * gs::kBB, 18.0}) {
      // The model's formula summed over every record in execution order.
      double want = 0.0;
      for (const auto& e : ref.log)
        want += static_cast<double>(e.times) * (static_cast<double>(e.length) + es.n_half) *
                fpe / es.rinf_per_pe;
      const double got = es.vector_seconds(h, fpe);
      EXPECT_LE(std::abs(got - want), 1e-14 * want) << "seed " << seed << ", fpe " << fpe;
    }
  }
}
