// Microbenchmarks of the hot kernels on the host CPU: block SpMV in CSR vs
// PDJDS order, one apply() of each preconditioner, and the BLAS-1 dot.
// These are host-hardware numbers (no machine model) — useful for tracking
// regressions of this implementation rather than for paper comparison.
//
// Two harnesses share this binary:
//   * A scalar-vs-SIMD comparison table (runs first): every kernel is timed
//     twice in the same process — once under simd::IsaScope(kScalar), once on
//     the build's active tier — and reported as GFLOP/s, effective GB/s and
//     speedup. The table lands in BENCH_kernels.json (GEOFEM_BENCH_JSON=1)
//     tagged with the active ISA, which is how the DESIGN.md 5f acceptance
//     numbers are recorded.
//   * The google-benchmark suite (unchanged) for fine-grained regression
//     tracking of individual kernels and telemetry overhead.
//
// GEOFEM_BENCH_TINY=1 runs a smoke version: few repetitions, no google
// benchmarks, and — when GEOFEM_REQUIRE_ISA is set (e.g. "avx2") — a hard
// failure if the active kernel tier is not the required one. CI's SIMD job
// uses this to catch a build that silently fell back to scalar kernels.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "obs/obs.hpp"
#include "precond/bic.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "simd/simd.hpp"
#include "sparse/vector_ops.hpp"
#include "util/timer.hpp"

namespace {

bool tiny() {
  const char* e = std::getenv("GEOFEM_BENCH_TINY");
  return e && *e && std::string(e) != "0";
}

struct Fixture {
  geofem::mesh::HexMesh mesh;
  geofem::fem::System sys;
  geofem::contact::Supernodes sn;

  Fixture() : Fixture(tiny() ? std::array<int, 5>{5, 5, 3, 5, 5}
                             : std::array<int, 5>{11, 11, 8, 11, 11}) {}

  explicit Fixture(std::array<int, 5> dims) {
    mesh = geofem::mesh::simple_block({dims[0], dims[1], dims[2], dims[3], dims[4]});
    sys = geofem::fem::assemble_elasticity(mesh, {{1.0, 0.3}});
    geofem::contact::add_penalty(sys.a, mesh.contact_groups, 1e6);
    geofem::fem::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [zmax](double, double, double z) { return z > zmax - 0.1; }, 2, -1.0);
    geofem::fem::apply_boundary_conditions(sys, bc);
    sn = geofem::contact::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

geofem::reorder::DJDSMatrix make_djds(const Fixture& f) {
  const auto g = geofem::sparse::graph_of(f.sys.a);
  const auto q = geofem::reorder::quotient_graph(g, f.sn.node_to_super, f.sn.count());
  const auto col = geofem::reorder::lift_coloring(geofem::reorder::multicolor(q, 20),
                                                  f.sn.node_to_super, f.sys.a.n);
  return geofem::reorder::DJDSMatrix(f.sys.a, col, &f.sn, {});
}

// ---------------------------------------------------------------------------
// Scalar-vs-SIMD comparison
// ---------------------------------------------------------------------------

/// Median-of-reps wall time of `fn()` (seconds per call). One warm-up call
/// populates caches and any lazy state before timing starts.
template <class Fn>
double time_kernel(Fn&& fn, int reps) {
  fn();
  std::vector<double> t(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    geofem::util::Timer timer;
    fn();
    t[static_cast<std::size_t>(r)] = timer.seconds();
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

struct KernelRow {
  std::string name;
  std::string prec;  ///< stored precision of the kernel's operand ("fp64"/"fp32")
  double flops;      ///< algorithmic FLOPs per call
  double bytes;      ///< streamed bytes per call (effective-bandwidth model)
  double sec_scalar = 0.0;
  double sec_active = 0.0;
};

/// Effective-bandwidth model shared by both storage formats so the GB/s
/// column compares like with like: matrix values (72 B/block) + one 4-byte
/// column index per block + one read of x and one write of y. Cached re-reads
/// of x are deliberately not counted — "effective" bandwidth is what the
/// paper-style byte-per-FLOP arguments use.
double spmv_bytes(std::size_t nnz_blocks, std::size_t ndof) {
  return static_cast<double>(nnz_blocks) * (72.0 + 4.0) + 16.0 * static_cast<double>(ndof);
}

/// Substitution sweeps stream the factor once per apply plus r/z traffic.
double apply_bytes(std::size_t precond_bytes, std::size_t ndof) {
  return static_cast<double>(precond_bytes) + 16.0 * static_cast<double>(ndof);
}

/// Prints the comparison tables; false when a column of an SB-BIC(0)
/// apply_multi differs from its single apply in the scalar tier.
bool run_comparison(geofem::obs::Registry& reg, int argc, char** argv) {
  namespace simd = geofem::simd;
  using geofem::util::FlopCounter;
  const auto& f = fixture();
  const std::size_t ndof = f.sys.a.ndof();
  const int reps = tiny() ? 5 : 41;

  std::cout << "== hot kernels: scalar vs " << simd::active_isa()
            << " (same binary, IsaScope) ==\n"
            << "   DOF " << ndof << ", median of " << reps << " calls\n\n";

  using geofem::precond::Precision;
  const auto dj = make_djds(f);
  const geofem::precond::BIC0 bic0(f.sys.a);
  const geofem::precond::BlockILUk bic1(f.sys.a, 1);
  const geofem::precond::SBBIC0 sbbic0(f.sys.a, f.sn);
  const geofem::precond::DJDSBIC djdsbic(f.sys.a, dj);
  // fp32-stored twins of the apply kernels (fp64 factorization, narrowed
  // storage): half the factor bandwidth, 8-lane AVX2 sweeps.
  const geofem::precond::BIC0 bic0_32(f.sys.a, Precision::kSingle);
  const geofem::precond::SBBIC0 sbbic0_32(f.sys.a, f.sn, /*modified=*/false,
                                          Precision::kSingle);
  const geofem::precond::DJDSBIC djdsbic32(f.sys.a, dj, Precision::kSingle);

  std::vector<double> x(ndof, 1.0), y(ndof);
  simd::aligned_vector<double> r(ndof, 1.0), z(ndof);

  std::vector<KernelRow> rows;
  auto add = [&](std::string name, const char* prec, double flops, double bytes, auto&& call) {
    KernelRow row{std::move(name), prec, flops, bytes};
    {
      simd::IsaScope scalar(simd::Isa::kScalar);
      row.sec_scalar = time_kernel(call, reps);
    }
    row.sec_active = time_kernel(call, reps);
    rows.push_back(std::move(row));
  };

  {
    FlopCounter fc;
    f.sys.a.spmv(x, y, &fc, nullptr);
    add("SpMV CSR", "fp64", static_cast<double>(fc.spmv),
        spmv_bytes(f.sys.a.nnz_blocks(), ndof), [&] { f.sys.a.spmv(x, y); });
  }
  {
    FlopCounter fc;
    dj.spmv(x, y, &fc, nullptr);
    add("SpMV DJDS", "fp64", static_cast<double>(fc.spmv),
        spmv_bytes(f.sys.a.nnz_blocks(), ndof), [&] { dj.spmv(x, y); });
  }
  {
    FlopCounter fc;
    bic0.apply(r, z, &fc, nullptr);
    add("BIC(0) apply", "fp64", static_cast<double>(fc.precond),
        apply_bytes(bic0.memory_bytes(), ndof), [&] { bic0.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    bic0_32.apply(r, z, &fc, nullptr);
    add("BIC(0) apply", "fp32", static_cast<double>(fc.precond),
        apply_bytes(bic0_32.memory_bytes(), ndof),
        [&] { bic0_32.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    bic1.apply(r, z, &fc, nullptr);
    add("BIC(1) apply", "fp64", static_cast<double>(fc.precond),
        apply_bytes(bic1.memory_bytes(), ndof), [&] { bic1.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    sbbic0.apply(r, z, &fc, nullptr);
    add("SB-BIC(0) apply", "fp64", static_cast<double>(fc.precond),
        apply_bytes(sbbic0.memory_bytes(), ndof),
        [&] { sbbic0.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    sbbic0_32.apply(r, z, &fc, nullptr);
    add("SB-BIC(0) apply", "fp32", static_cast<double>(fc.precond),
        apply_bytes(sbbic0_32.memory_bytes(), ndof),
        [&] { sbbic0_32.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    djdsbic.apply(r, z, &fc, nullptr);
    add("SB-BIC(0) PDJDS apply", "fp64", static_cast<double>(fc.precond),
        apply_bytes(djdsbic.memory_bytes(), ndof),
        [&] { djdsbic.apply(r, z, nullptr, nullptr); });
  }
  {
    FlopCounter fc;
    djdsbic32.apply(r, z, &fc, nullptr);
    add("SB-BIC(0) PDJDS apply", "fp32", static_cast<double>(fc.precond),
        apply_bytes(djdsbic32.memory_bytes(), ndof),
        [&] { djdsbic32.apply(r, z, nullptr, nullptr); });
  }
  // BLAS-1 dot: 2n FLOPs, 16 B/element. Regression note — dot used to heap-
  // allocate its partial-sum buffer on every call; with the reusable
  // thread-local scratch (sparse/vector_ops.hpp) the timing below is pure
  // reduction. If this row's ns/call ever jumps for small vectors, suspect a
  // reintroduced per-call allocation before suspecting the arithmetic.
  {
    volatile double sink = 0.0;
    add("dot", "fp64", 2.0 * static_cast<double>(ndof), 16.0 * static_cast<double>(ndof),
        [&] { sink = sink + geofem::sparse::dot(r, z); });
  }

  geofem::util::Table table({"kernel", "precision", "scalar GFLOP/s",
                             std::string(simd::active_isa()) + " GFLOP/s", "speedup",
                             "eff GB/s"});
  for (const auto& row : rows) {
    const double gf_s = row.flops / row.sec_scalar / 1e9;
    const double gf_a = row.flops / row.sec_active / 1e9;
    const double gbs = row.bytes / row.sec_active / 1e9;
    const double speedup = row.sec_scalar / row.sec_active;
    table.row({row.name, row.prec, geofem::util::Table::fmt(gf_s, 2),
               geofem::util::Table::fmt(gf_a, 2), geofem::util::Table::fmt(speedup, 2) + "x",
               geofem::util::Table::fmt(gbs, 2)});
    std::string slug = row.name;
    for (char& c : slug) c = (c == ' ' || c == '(' || c == ')') ? '_' : c;
    if (row.prec != "fp64") slug += "." + row.prec;  // fp64 keeps historical keys
    reg.gauge("kernels.speedup." + slug)->set(speedup);
    reg.gauge("kernels.gflops." + slug)->set(gf_a);
    reg.gauge("kernels.gbs." + slug)->set(gbs);
    // fp32-vs-fp64 apply ratio of the same kernel (same algorithmic FLOPs,
    // half the streamed factor bytes): the DESIGN.md §5i acceptance number.
    if (row.prec == "fp32") {
      for (const auto& base : rows)
        if (base.name == row.name && base.prec == "fp64")
          reg.gauge("kernels.fp32_speedup." + slug)->set(base.sec_active / row.sec_active);
    }
  }
  table.print();

  // -------------------------------------------------------------------------
  // Multi-RHS SpMM amortization (DESIGN.md §5k): one SpMM over k interleaved
  // RHS columns vs k back-to-back SpMVs on the active tier. Both move the
  // same matrix; SpMM streams it once for all k columns, so the per-RHS
  // effective bandwidth rises by the amortization ratio sec_seq / sec_spmm.
  // k = 1 is the delegation sanity row (ratio ~1). The per-RHS GB/s column
  // uses the single-RHS byte model above for both sides, so the ratio of the
  // two columns IS the amortization.
  // -------------------------------------------------------------------------
  const auto dj2 = make_djds(f);
  geofem::util::Table mtable(
      {"kernel", "k", "seq SpMV GB/s per RHS", "SpMM GB/s per RHS", "amortization"});
  const double rhs_bytes = spmv_bytes(f.sys.a.nnz_blocks(), ndof);
  std::cout << "\n== multi-RHS SpMM vs k sequential SpMVs (" << simd::active_isa() << ") ==\n\n";
  for (const bool djds : {false, true}) {
    for (const int k : {1, 2, 4, 8}) {
      std::vector<double> xm(ndof * static_cast<std::size_t>(k), 1.0), ym(xm.size());
      const double sec_seq = time_kernel(
          [&] {
            for (int c = 0; c < k; ++c) {
              if (djds)
                dj2.spmv(x, y);
              else
                f.sys.a.spmv(x, y);
            }
          },
          reps);
      const double sec_spmm = time_kernel(
          [&] {
            if (djds)
              dj2.spmm(xm, ym, k);
            else
              f.sys.a.spmm(xm, ym, k);
          },
          reps);
      const double amort = sec_seq / sec_spmm;
      const double gbs_seq = rhs_bytes / (sec_seq / k) / 1e9;
      const double gbs_spmm = rhs_bytes / (sec_spmm / k) / 1e9;
      const char* name = djds ? "SpMM DJDS" : "SpMM CSR";
      mtable.row({name, std::to_string(k), geofem::util::Table::fmt(gbs_seq, 2),
                  geofem::util::Table::fmt(gbs_spmm, 2),
                  geofem::util::Table::fmt(amort, 2) + "x"});
      const std::string slug =
          std::string("kernels.spmm.") + (djds ? "djds" : "csr") + ".k" + std::to_string(k);
      reg.gauge(slug + ".amortization")->set(amort);
      reg.gauge(slug + ".gbs_per_rhs")->set(gbs_spmm);
      reg.gauge(slug + ".seq_gbs_per_rhs")->set(gbs_seq);
    }
  }
  mtable.print();

  // -------------------------------------------------------------------------
  // Natural-ordering SB-BIC(0) apply_multi on the 6/6/4/6/6 block (the
  // service model): per-column time of one k-column apply against k single
  // applies, active tier. k = 2..4 run the fixed-width kernels. Gate: in the
  // scalar tier every column must equal its single apply bitwise.
  // -------------------------------------------------------------------------
  const Fixture svc_model({6, 6, 4, 6, 6});
  const auto& sa = svc_model.sys.a;
  const geofem::precond::SBBIC0 sb_svc(sa, svc_model.sn);
  const std::size_t sdof = sa.ndof();
  simd::aligned_vector<double> r1(sdof, 1.0), z1(sdof);
  bool sb_multi_bitwise = true;
  geofem::util::Table btable({"kernel", "k", "k single applies us/col",
                              "apply_multi us/col", "ratio", "scalar columns bitwise"});
  std::cout << "\n== SB-BIC(0) apply_multi vs k single applies (" << simd::active_isa()
            << ", " << sdof << " DOF) ==\n\n";
  for (const int k : {1, 2, 3, 4}) {
    std::vector<double> rm(sdof * static_cast<std::size_t>(k)), zm(rm.size());
    for (std::size_t i = 0; i < rm.size(); ++i)
      rm[i] = 1.0 + 1e-3 * static_cast<double>((i * 7919) % 101);
    const double sec_seq = time_kernel(
        [&] {
          for (int c = 0; c < k; ++c) sb_svc.apply(r1, z1, nullptr, nullptr);
        },
        reps);
    const double sec_multi =
        time_kernel([&] { sb_svc.apply_multi(rm, zm, k, nullptr, nullptr); }, reps);
    bool same = true;
    {
      simd::IsaScope scalar(simd::Isa::kScalar);
      sb_svc.apply_multi(rm, zm, k, nullptr, nullptr);
      std::vector<double> rc(sdof), zc(sdof);
      for (int c = 0; c < k; ++c) {
        for (std::size_t i = 0; i < sdof; ++i) rc[i] = rm[i * static_cast<std::size_t>(k) + c];
        sb_svc.apply(rc, zc, nullptr, nullptr);
        for (std::size_t i = 0; i < sdof; ++i)
          same = same && std::memcmp(&zc[i], &zm[i * static_cast<std::size_t>(k) + c],
                                     sizeof(double)) == 0;
      }
    }
    sb_multi_bitwise = sb_multi_bitwise && same;
    const double us_seq = 1e6 * sec_seq / k;
    const double us_multi = 1e6 * sec_multi / k;
    btable.row({"SB-BIC(0) apply_multi", std::to_string(k), geofem::util::Table::fmt(us_seq, 1),
                geofem::util::Table::fmt(us_multi, 1),
                geofem::util::Table::fmt(sec_seq / sec_multi, 2) + "x", same ? "yes" : "NO"});
    const std::string slug = "kernels.sbbic0_multi.k" + std::to_string(k);
    reg.gauge(slug + ".us_per_col")->set(us_multi);
    reg.gauge(slug + ".single_us_per_col")->set(us_seq);
  }
  btable.print();
  bench::emit_json(reg, "kernels", argc, argv, {&table, &mtable, &btable});
  return sb_multi_bitwise;
}

// ---------------------------------------------------------------------------
// google-benchmark suite (regression tracking of individual kernels)
// ---------------------------------------------------------------------------

void BM_SpmvCSR(benchmark::State& state) {
  const auto& f = fixture();
  std::vector<double> x(f.sys.a.ndof(), 1.0), y(x.size());
  for (auto _ : state) {
    f.sys.a.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.sys.a.nnz_blocks());
}
BENCHMARK(BM_SpmvCSR);

void BM_SpmvDJDS(benchmark::State& state) {
  const auto& f = fixture();
  const auto dj = make_djds(f);
  std::vector<double> x(f.sys.a.ndof(), 1.0), y(x.size());
  for (auto _ : state) {
    dj.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.sys.a.nnz_blocks());
}
BENCHMARK(BM_SpmvDJDS);

void BM_ApplyBIC0(benchmark::State& state) {
  const auto& f = fixture();
  const geofem::precond::BIC0 prec(f.sys.a);
  std::vector<double> r(f.sys.a.ndof(), 1.0), z(r.size());
  for (auto _ : state) {
    prec.apply(r, z, nullptr, nullptr);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ApplyBIC0);

void BM_ApplySBBIC0(benchmark::State& state) {
  const auto& f = fixture();
  const geofem::precond::SBBIC0 prec(f.sys.a, f.sn);
  std::vector<double> r(f.sys.a.ndof(), 1.0), z(r.size());
  for (auto _ : state) {
    prec.apply(r, z, nullptr, nullptr);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ApplySBBIC0);

void BM_ApplyBIC1(benchmark::State& state) {
  const auto& f = fixture();
  const geofem::precond::BlockILUk prec(f.sys.a, 1);
  std::vector<double> r(f.sys.a.ndof(), 1.0), z(r.size());
  for (auto _ : state) {
    prec.apply(r, z, nullptr, nullptr);
    benchmark::DoNotOptimize(z.data());
  }
}
BENCHMARK(BM_ApplyBIC1);

void BM_FactorSBBIC0(benchmark::State& state) {
  const auto& f = fixture();
  for (auto _ : state) {
    const auto lus = geofem::precond::sb_factor_diagonals(f.sys.a, f.sn);
    benchmark::DoNotOptimize(lus.size());
  }
}
BENCHMARK(BM_FactorSBBIC0);

void BM_Dot(benchmark::State& state) {
  const auto& f = fixture();
  geofem::simd::aligned_vector<double> a(f.sys.a.ndof(), 1.0), b(a.size(), 0.5);
  for (auto _ : state) {
    double d = geofem::sparse::dot(a, b);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_Dot);

// -- telemetry overhead ------------------------------------------------------
// The hot kernels above run with no registry attached; these quantify what
// that costs. With no registry, a ScopedSpan is one thread-local load and a
// null check; BM_SpmvDJDS vs BM_SpmvDJDSTelemetryOff must be indistinguishable.

void BM_SpanDisabled(benchmark::State& state) {
  geofem::obs::Attach detach(nullptr);
  for (auto _ : state) {
    geofem::obs::ScopedSpan span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  geofem::obs::Registry reg;
  geofem::obs::Attach attach(&reg);
  for (auto _ : state) {
    geofem::obs::ScopedSpan span("bench.enabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterHandleAdd(benchmark::State& state) {
  geofem::obs::Registry reg;
  geofem::obs::Counter* c = reg.counter("bench.counter");
  for (auto _ : state) {
    c->add(1);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CounterHandleAdd);

void BM_SpmvDJDSTelemetryOff(benchmark::State& state) {
  geofem::obs::Attach detach(nullptr);
  const auto& f = fixture();
  const auto dj = make_djds(f);
  std::vector<double> x(f.sys.a.ndof(), 1.0), y(x.size());
  for (auto _ : state) {
    geofem::obs::ScopedSpan span("bench.spmv");
    dj.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.sys.a.nnz_blocks());
}
BENCHMARK(BM_SpmvDJDSTelemetryOff);

}  // namespace

int main(int argc, char** argv) {
  geofem::obs::Registry reg;
  geofem::obs::Attach attach(&reg);
  bench::describe_problem(reg, static_cast<std::int64_t>(fixture().sys.a.ndof()), 1e6);

  // CI's SIMD job sets GEOFEM_REQUIRE_ISA=avx2: fail loudly if the binary
  // silently fell back to a lower kernel tier (wrong flags, wrong host).
  if (const char* req = std::getenv("GEOFEM_REQUIRE_ISA")) {
    if (std::string(req) != geofem::simd::active_isa()) {
      std::cerr << "[bench] FAIL: active ISA is " << geofem::simd::active_isa()
                << ", required " << req << "\n";
      return 1;
    }
  }

  if (!run_comparison(reg, argc, argv)) {
    std::cerr << "[bench] FAIL: a scalar-tier SB-BIC(0) apply_multi column differs from its "
                 "single apply\n";
    return 1;
  }

  if (tiny()) {
    // Gate: both precision series must have produced numbers — a build that
    // silently drops the fp32 kernels (or the fp64 baseline) fails here.
    const auto snap = reg.snapshot();
    for (const char* g : {"kernels.gflops.SB-BIC_0__PDJDS_apply",
                          "kernels.gflops.SB-BIC_0__PDJDS_apply.fp32",
                          "kernels.fp32_speedup.SB-BIC_0__PDJDS_apply.fp32",
                          "kernels.spmm.csr.k8.amortization",
                          "kernels.spmm.djds.k8.amortization"}) {
      const double* v = snap.gauge(g);
      if (!v || !(*v > 0.0)) {
        std::cerr << "[bench] FAIL: missing precision series gauge " << g << "\n";
        return 1;
      }
    }
    std::cout << "\nsimd kernels smoke passed (isa=" << geofem::simd::active_isa()
              << ", fp64+fp32)\n";
    return 0;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
