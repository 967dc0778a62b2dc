// Natural-ordering SB-BIC(0) substitution and block SpMM: the plan-held
// split coupling lists, packed singleton solves and fixed-width (k = 2..4)
// kernels must reproduce the per-entry-filter sweeps and the runtime-k SpMM
// bit for bit, at every team size and batch width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "contact/penalty.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "obs/obs.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/desc.hpp"
#include "precond/sb_bic0.hpp"
#include "simd/block3.hpp"
#include "simd/multirhs.hpp"
#include "simd/simd.hpp"
#include "util/loop_stats.hpp"
#include "util/rng.hpp"

namespace gc = geofem::contact;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gp = geofem::precond;
namespace gplan = geofem::plan;
namespace gs = geofem::sparse;
namespace simd = geofem::simd;

namespace {

using gs::kB;
using gs::kBB;

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;
  gc::Supernodes sn;

  Problem() {
    mesh = gm::simple_block({4, 4, 3, 4, 4});
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, 1e6);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
    sn = gc::build_supernodes(mesh.num_nodes(), mesh.contact_groups);
  }
};

const Problem& problem() {
  static const Problem p;
  return p;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  geofem::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// `k` as a value the compiler cannot fold: a reference kernel called with a
/// literal width must still run the runtime-k column loops, or it would
/// compile (and, under FMA contraction, round) like the fixed-width kernels
/// it is checking.
int runtime_width(int k) {
  volatile int v = k;
  return v;
}

/// 3x3 accumulator of the single-RHS sweeps in the scalar (Avx = false) or
/// AVX2 tier.
template <class T, bool Avx>
struct AccOf {
  using type = simd::ScalarAcc3T<T>;
};
#if GEOFEM_SIMD_HAS_AVX2
template <class T>
struct AccOf<T, true> {
  using type = simd::AvxAcc3T<T>;
};
#endif

/// The substitution as it was written before the plan held its structure:
/// serial sweeps in ascending / descending supernode order that walk every
/// entry of every member row and skip the wrong half through node_to_super,
/// with the generic dense solve for every supernode, in the scalar or the
/// AVX2 tier's kernels. T is the stored value scalar; the per-supernode
/// solvers are DenseLU (fp64) or DenseSolveT<float>.
template <class T, bool Avx = false>
struct Reference {
  const gs::BlockCSR& a;
  const gc::Supernodes& sn;
  std::vector<gs::DenseLU> lu;
  std::vector<gs::DenseSolveT<float>> lu32;
  simd::aligned_vector<float> aval32;

  Reference(const gs::BlockCSR& mat, const gc::Supernodes& s) : a(mat), sn(s) {
    lu = gp::sb_factor_diagonals(a, sn);
    if constexpr (std::is_same_v<T, float>) {
      for (const auto& f : lu) lu32.emplace_back(f);
      gp::narrow_or_throw(std::span<const double>(a.val.data(), a.val.size()), aval32);
    }
  }

  [[nodiscard]] const T* aval() const {
    if constexpr (std::is_same_v<T, float>)
      return aval32.data();
    else
      return a.val.data();
  }
  void solve(int s, double* x) const {
    if constexpr (std::is_same_v<T, float>)
      lu32[static_cast<std::size_t>(s)].solve(x);
    else
      lu[static_cast<std::size_t>(s)].solve(x);
  }

  /// Single-RHS apply.
  void apply(const double* r, double* z) const {
    const T* av = aval();
    std::vector<double> acc;
    for (int s = 0; s < sn.count(); ++s) {
      const auto& mem = sn.members[static_cast<std::size_t>(s)];
      acc.assign(mem.size() * kB, 0.0);
      for (std::size_t t = 0; t < mem.size(); ++t) {
        const int i = mem[t];
        typename AccOf<T, Avx>::type ai;
        ai.init(r + static_cast<std::size_t>(i) * kB);
        for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
          const int j = a.colind[e];
          if (sn.node_to_super[static_cast<std::size_t>(j)] >= s) continue;
          ai.msub(av + static_cast<std::size_t>(e) * kBB, z + static_cast<std::size_t>(j) * kB);
        }
        ai.reduce(acc.data() + t * kB);
      }
      solve(s, acc.data());
      for (std::size_t t = 0; t < mem.size(); ++t)
        for (int c = 0; c < kB; ++c) z[static_cast<std::size_t>(mem[t]) * kB + c] = acc[t * kB + c];
    }
    for (int s = sn.count() - 1; s >= 0; --s) {
      const auto& mem = sn.members[static_cast<std::size_t>(s)];
      acc.assign(mem.size() * kB, 0.0);
      for (std::size_t t = 0; t < mem.size(); ++t) {
        const int i = mem[t];
        typename AccOf<T, Avx>::type ai;
        ai.init_zero();
        for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
          const int j = a.colind[e];
          if (sn.node_to_super[static_cast<std::size_t>(j)] <= s) continue;
          ai.madd(av + static_cast<std::size_t>(e) * kBB, z + static_cast<std::size_t>(j) * kB);
        }
        ai.reduce(acc.data() + t * kB);
      }
      solve(s, acc.data());
      for (std::size_t t = 0; t < mem.size(); ++t)
        for (int c = 0; c < kB; ++c)
          z[static_cast<std::size_t>(mem[t]) * kB + c] -= acc[t * kB + c];
    }
  }

  /// k-column apply (b3k kernels, runtime k, per-column solves).
  void apply_multi(const double* r, double* z, int k_arg) const {
    const int k = runtime_width(k_arg);
    const T* av = aval();
    const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
    std::vector<double> acc, col;
    auto solve_cols = [&](int s, std::size_t dim) {
      col.resize(dim);
      for (int c = 0; c < k; ++c) {
        for (std::size_t d = 0; d < dim; ++d) col[d] = acc[d * k + c];
        solve(s, col.data());
        for (std::size_t d = 0; d < dim; ++d) acc[d * k + c] = col[d];
      }
    };
    for (int s = 0; s < sn.count(); ++s) {
      const auto& mem = sn.members[static_cast<std::size_t>(s)];
      acc.assign(mem.size() * rk, 0.0);
      for (std::size_t t = 0; t < mem.size(); ++t) {
        const int i = mem[t];
        double* at = acc.data() + t * rk;
        for (std::size_t c = 0; c < rk; ++c) at[c] = r[static_cast<std::size_t>(i) * rk + c];
        for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
          const int j = a.colind[e];
          if (sn.node_to_super[static_cast<std::size_t>(j)] >= s) continue;
          simd::b3k_msub<T, Avx>(av + static_cast<std::size_t>(e) * kBB,
                                   z + static_cast<std::size_t>(j) * rk, at, k);
        }
      }
      solve_cols(s, mem.size() * kB);
      for (std::size_t t = 0; t < mem.size(); ++t)
        for (std::size_t c = 0; c < rk; ++c)
          z[static_cast<std::size_t>(mem[t]) * rk + c] = acc[t * rk + c];
    }
    for (int s = sn.count() - 1; s >= 0; --s) {
      const auto& mem = sn.members[static_cast<std::size_t>(s)];
      acc.assign(mem.size() * rk, 0.0);
      for (std::size_t t = 0; t < mem.size(); ++t) {
        const int i = mem[t];
        double* at = acc.data() + t * rk;
        for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
          const int j = a.colind[e];
          if (sn.node_to_super[static_cast<std::size_t>(j)] <= s) continue;
          simd::b3k_madd<T, Avx>(av + static_cast<std::size_t>(e) * kBB,
                                   z + static_cast<std::size_t>(j) * rk, at, k);
        }
      }
      solve_cols(s, mem.size() * kB);
      for (std::size_t t = 0; t < mem.size(); ++t)
        for (std::size_t c = 0; c < rk; ++c)
          z[static_cast<std::size_t>(mem[t]) * rk + c] -= acc[t * rk + c];
    }
  }

  /// Loop lengths one apply reports: per supernode its filtered coupling
  /// count + 1, forward ascending then backward descending.
  [[nodiscard]] geofem::util::LoopStats loops() const {
    geofem::util::LoopStats ls;
    auto count = [&](int s, bool lower) {
      int len = 0;
      for (int i : sn.members[static_cast<std::size_t>(s)])
        for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
          const int sj = sn.node_to_super[static_cast<std::size_t>(a.colind[e])];
          if (lower ? sj < s : sj > s) ++len;
        }
      return len;
    };
    for (int s = 0; s < sn.count(); ++s) ls.record(count(s, true) + 1);
    for (int s = sn.count() - 1; s >= 0; --s) ls.record(count(s, false) + 1);
    return ls;
  }
};

template <class Ref>
void check_tier(const Ref& ref, const gp::SBBIC0& m, const char* tier) {
  const std::size_t ndof = ref.a.ndof();
  // Single-RHS apply.
  const auto r1 = random_vector(ndof, 11);
  std::vector<double> want1(ndof);
  ref.apply(r1.data(), want1.data());
  for (int team = 1; team <= 4; ++team) {
    geofem::par::TeamScope ts(team);
    std::vector<double> got(ndof, 0.0);
    m.apply(r1, got, nullptr, nullptr);
    EXPECT_TRUE(bitwise_equal(got, want1)) << tier << " apply, team " << team;
  }
  // Batched apply at every width class: fixed (2..4) and runtime (1, 5, 8).
  for (const int k : {1, 2, 3, 4, 5, 8}) {
    const std::size_t nk = ndof * static_cast<std::size_t>(k);
    const auto rk = random_vector(nk, 100 + static_cast<std::uint64_t>(k));
    std::vector<double> want(nk);
    ref.apply_multi(rk.data(), want.data(), k);
    for (int team = 1; team <= 4; ++team) {
      geofem::par::TeamScope ts(team);
      std::vector<double> got(nk, 0.0);
      m.apply_multi(rk, got, k, nullptr, nullptr);
      EXPECT_TRUE(bitwise_equal(got, want)) << tier << " apply_multi k " << k << ", team " << team;
    }
  }
}

template <class T>
void check_against_reference(gp::Precision precision) {
  const auto& pb = problem();
  ASSERT_LT(pb.sn.count(), pb.sys.a.n) << "fixture needs multi-node supernodes";
  const gp::SBBIC0 m(pb.sys.a, pb.sn, /*modified=*/false, precision);
  {
    simd::IsaScope isa(simd::Isa::kOmpSimd);
    check_tier(Reference<T, false>(pb.sys.a, pb.sn), m, "omp-simd");
  }
  if (simd::active() == simd::Isa::kAvx2)
    check_tier(Reference<T, true>(pb.sys.a, pb.sn), m, "avx2");
}

}  // namespace

TEST(SBSweeps, ApplyAndApplyMultiMatchPerEntryFilterReferenceFp64) {
  check_against_reference<double>(gp::Precision::kDouble);
}

TEST(SBSweeps, ApplyAndApplyMultiMatchPerEntryFilterReferenceFp32) {
  check_against_reference<float>(gp::Precision::kSingle);
}

TEST(SBSweeps, LargeSupernodeStagedOnHeapMatchesReference) {
  // A 40-node selective block: at k = 8 its staging (120 x 9 doubles)
  // exceeds the on-stack buffer, so the heap path runs.
  const auto& pb = problem();
  std::vector<std::vector<int>> groups(1);
  for (int i = 0; i < 40; ++i) groups[0].push_back(i);
  const auto sn = gc::build_supernodes(pb.sys.a.n, groups);
  const gp::SBBIC0 m(pb.sys.a, sn);
  ASSERT_EQ(m.max_block_nodes(), 40);
  simd::IsaScope isa(simd::Isa::kOmpSimd);
  check_tier(Reference<double>(pb.sys.a, sn), m, "omp-simd");
}

TEST(SBSweeps, ColumnsOfApplyMultiEqualSingleApplies) {
  // Scalar tier: the multi-RHS kernels keep ScalarAcc3's per-column
  // association, so every column of a batch is its own single apply.
  const auto& pb = problem();
  const gp::SBBIC0 m(pb.sys.a, pb.sn);
  simd::IsaScope isa(simd::Isa::kScalar);
  const std::size_t ndof = pb.sys.a.ndof();
  for (const int k : {2, 3, 4, 5}) {
    const auto r = random_vector(ndof * static_cast<std::size_t>(k), 7);
    std::vector<double> z(r.size());
    m.apply_multi(r, z, k, nullptr, nullptr);
    std::vector<double> rc(ndof), zc(ndof), col(ndof);
    for (int c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < ndof; ++i) rc[i] = r[i * k + c];
      m.apply(rc, zc, nullptr, nullptr);
      for (std::size_t i = 0; i < ndof; ++i) col[i] = z[i * k + c];
      EXPECT_TRUE(bitwise_equal(col, zc)) << "k " << k << ", column " << c;
    }
  }
}

TEST(SBSweeps, PlanHeldLoopStatsMatchPerEntryPattern) {
  const auto& pb = problem();
  const Reference<double> ref(pb.sys.a, pb.sn);
  const gp::SBBIC0 m(pb.sys.a, pb.sn);
  const auto want = ref.loops();
  for (const int k : {0, 3}) {
    geofem::util::LoopStats got;
    std::vector<double> r(pb.sys.a.ndof() * static_cast<std::size_t>(std::max(k, 1)), 1.0);
    std::vector<double> z(r.size());
    if (k == 0)
      m.apply(r, z, nullptr, &got);
    else
      m.apply_multi(r, z, k, nullptr, &got);
    ASSERT_EQ(got.entries().size(), want.entries().size());
    for (std::size_t i = 0; i < want.entries().size(); ++i) {
      EXPECT_EQ(got.entries()[i].length, want.entries()[i].length);
      EXPECT_EQ(got.entries()[i].times, want.entries()[i].times);
    }
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.total_length(), want.total_length());
    EXPECT_EQ(got.min_length(), want.min_length());
    EXPECT_EQ(got.max_length(), want.max_length());
  }
}

namespace {

/// The runtime-k SpMM row loop: b3k_madd over each block row, k read at run
/// time, UseAvx as the tier under test dispatches it.
[[gnu::noinline]] std::vector<double> spmm_runtime_width(const gs::BlockCSR& a,
                                                         const std::vector<double>& x, int k_arg,
                                                         bool avx) {
  const int k = runtime_width(k_arg);
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
  std::vector<double> y(x.size()), acc(rk);
  for (int i = 0; i < a.n; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const double* xe = x.data() + static_cast<std::size_t>(a.colind[e]) * rk;
#if GEOFEM_SIMD_HAS_AVX2
      if (avx) {
        simd::b3k_madd<double, true>(a.block(e), xe, acc.data(), k);
        continue;
      }
#endif
      (void)avx;
      simd::b3k_madd<double, false>(a.block(e), xe, acc.data(), k);
    }
    std::copy(acc.begin(), acc.end(), y.begin() + static_cast<std::ptrdiff_t>(i * rk));
  }
  return y;
}

}  // namespace

TEST(SBSweeps, SpmmFixedWidthsMatchRuntimeWidthKernel) {
  const auto& a = problem().sys.a;
  const std::size_t ndof = a.ndof();
  for (const int k : {2, 3, 4}) {
    const auto x =
        random_vector(ndof * static_cast<std::size_t>(k), 40 + static_cast<std::uint64_t>(k));
    for (int team = 1; team <= 2; ++team) {
      geofem::par::TeamScope ts(team);
      {
        simd::IsaScope isa(simd::Isa::kOmpSimd);
        std::vector<double> y(x.size());
        a.spmm(x, y, k, nullptr, nullptr);
        EXPECT_TRUE(bitwise_equal(y, spmm_runtime_width(a, x, k, false))) << "omp-simd k " << k;
      }
      if (simd::active() == simd::Isa::kAvx2) {
        std::vector<double> y(x.size());
        a.spmm(x, y, k, nullptr, nullptr);
        EXPECT_TRUE(bitwise_equal(y, spmm_runtime_width(a, x, k, true))) << "avx2 k " << k;
      }
    }
  }
}

TEST(Plan, WarmNaturalSBBIC0NumericRunsNoSymbolicWork) {
  // The natural-ordering plan holds the SB-BIC(0) symbolic including the
  // sweep structure: a warm numeric() is factor + pack, sharing the plan's
  // level schedules instead of rebuilding them.
  const auto& pb = problem();
  gplan::PlanConfig cfg;
  cfg.precond = gplan::PrecondKind::kSBBIC0;
  geofem::obs::Registry cold_reg;
  std::unique_ptr<gplan::SolvePlan> plan;
  {
    geofem::obs::Attach attach(&cold_reg);
    plan = std::make_unique<gplan::SolvePlan>(pb.sys.a, pb.sn, cfg);
  }
  auto names = [](const geofem::obs::Registry& reg) {
    std::vector<std::string> out;
    for (const auto& sp : reg.snapshot().spans) out.push_back(sp.name);
    return out;
  };
  const auto cold = names(cold_reg);
  EXPECT_NE(std::find(cold.begin(), cold.end(), "precond.symbolic.SB-BIC(0)"), cold.end());

  geofem::obs::Registry warm_reg;
  gp::PreconditionerPtr p1, p2;
  {
    geofem::obs::Attach attach(&warm_reg);
    p1 = plan->numeric(pb.sys.a);
    p2 = plan->numeric(pb.sys.a);
  }
  const auto warm = names(warm_reg);
  EXPECT_NE(std::find(warm.begin(), warm.end(), "precond.numeric.SB-BIC(0)"), warm.end());
  for (const auto& n : warm) EXPECT_EQ(n.find("symbolic"), std::string::npos) << n;

  const auto* s1 = dynamic_cast<const gp::SBBIC0*>(p1.get());
  const auto* s2 = dynamic_cast<const gp::SBBIC0*>(p2.get());
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(&s1->forward_schedule(), &s2->forward_schedule());
  EXPECT_EQ(&s1->backward_schedule(), &s2->backward_schedule());

  // A warm factorization applies exactly like a cold one.
  const gp::SBBIC0 cold_m(pb.sys.a, pb.sn);
  const auto r = random_vector(pb.sys.a.ndof(), 5);
  std::vector<double> z_warm(r.size()), z_cold(r.size());
  s1->apply(r, z_warm, nullptr, nullptr);
  cold_m.apply(r, z_cold, nullptr, nullptr);
  EXPECT_TRUE(bitwise_equal(z_warm, z_cold));
}

TEST(LoopStats, MergeEqualsRecordingEachEntry) {
  geofem::util::LoopStats src;
  for (const auto& [len, times] :
       std::vector<std::pair<int, int>>{{5, 1}, {2, 3}, {9, 1}, {4, 2}})
    src.record(len, times);
  for (const bool empty_dst : {true, false}) {
    geofem::util::LoopStats merged, recorded;
    if (!empty_dst) {  // extremes on both sides of src's range
      for (auto* ls : {&merged, &recorded}) {
        ls->record(1, 2);
        ls->record(12, 1);
      }
    }
    merged.merge(src);
    merged.merge(geofem::util::LoopStats{});
    for (const auto& e : src.entries()) recorded.record(e.length, e.times);
    ASSERT_EQ(merged.entries().size(), recorded.entries().size());
    for (std::size_t i = 0; i < merged.entries().size(); ++i) {
      EXPECT_EQ(merged.entries()[i].length, recorded.entries()[i].length);
      EXPECT_EQ(merged.entries()[i].times, recorded.entries()[i].times);
    }
    EXPECT_EQ(merged.count(), recorded.count());
    EXPECT_EQ(merged.total_length(), recorded.total_length());
    EXPECT_EQ(merged.min_length(), recorded.min_length());
    EXPECT_EQ(merged.max_length(), recorded.max_length());
  }
}
