#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "contact/penalty.hpp"
#include "core/geofem.hpp"
#include "dist/dist_solver.hpp"
#include "fem/assembly.hpp"
#include "mesh/simple_block.hpp"
#include "obs/registry.hpp"
#include "part/local_system.hpp"
#include "part/partition.hpp"
#include "plan/cache.hpp"
#include "plan/fingerprint.hpp"
#include "plan/plan.hpp"
#include "solver/cg.hpp"

namespace gc = geofem::contact;
namespace gcore = geofem::core;
namespace gd = geofem::dist;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gpart = geofem::part;
namespace gplan = geofem::plan;
namespace gs = geofem::sparse;

namespace {

struct Problem {
  gm::HexMesh mesh;
  gf::System sys;

  explicit Problem(double lambda = 1e4, gm::SimpleBlockParams bp = {3, 3, 2, 3, 3}) {
    mesh = gm::simple_block(bp);
    sys = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
    gc::add_penalty(sys.a, mesh.contact_groups, lambda);
    gf::BoundaryConditions bc;
    bc.fix_nodes(mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
    const double zmax = mesh.bounding_box().hi[2];
    bc.surface_load(
        mesh, [&](double, double, double z) { return std::abs(z - zmax) < 1e-12; }, 2, -1.0);
    gf::apply_boundary_conditions(sys, bc);
  }
};

gplan::PlanConfig config_for(gplan::PrecondKind kind) {
  gplan::PlanConfig cfg;
  cfg.precond = kind;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(PlanFingerprint, OrderSensitive) {
  Problem pb;
  const std::uint64_t h0 = gplan::graph_fingerprint(pb.sys.a);
  // Swapping two column indices must change the digest even though the
  // multiset of indices is identical (FNV-1a is byte-order sensitive).
  gs::BlockCSR swapped = pb.sys.a;
  int row = -1;
  for (int i = 0; i < swapped.n && row < 0; ++i)
    if (swapped.rowptr[i + 1] - swapped.rowptr[i] >= 2) row = i;
  ASSERT_GE(row, 0);
  std::swap(swapped.colind[swapped.rowptr[row]], swapped.colind[swapped.rowptr[row] + 1]);
  EXPECT_NE(gplan::graph_fingerprint(swapped), h0);
}

TEST(PlanFingerprint, ValuesDoNotChangeGraphKey) {
  Problem a(1e4), b(1e8);  // same mesh, different penalty: same graph
  EXPECT_EQ(gplan::graph_fingerprint(a.sys.a), gplan::graph_fingerprint(b.sys.a));
}

TEST(PlanFingerprint, DistinctGraphsDistinctKeys) {
  Problem small(1e4, {3, 3, 2, 3, 3});
  Problem big(1e4, {4, 4, 3, 4, 4});
  const auto sn_s = gc::build_supernodes(small.sys.a.n, small.mesh.contact_groups);
  const auto sn_b = gc::build_supernodes(big.sys.a.n, big.mesh.contact_groups);
  const auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  EXPECT_FALSE(gplan::make_key(small.sys.a, sn_s, cfg) == gplan::make_key(big.sys.a, sn_b, cfg));
}

TEST(PlanFingerprint, ConfigFieldsKeyed) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  const auto base = gplan::make_key(pb.sys.a, sn, cfg);

  auto other = cfg;
  other.precond = gplan::PrecondKind::kBIC1;
  EXPECT_FALSE(gplan::make_key(pb.sys.a, sn, other) == base);

  // PDJDS-only knobs are ignored on the natural ordering...
  other = cfg;
  other.colors = 5;
  EXPECT_TRUE(gplan::make_key(pb.sys.a, sn, other) == base);

  // ...but keyed on the PDJDS orderings.
  auto pd = cfg;
  pd.ordering = gplan::OrderingKind::kPDJDSMC;
  auto pd_colors = pd;
  pd_colors.colors = 5;
  EXPECT_FALSE(gplan::make_key(pb.sys.a, sn, pd) == base);
  EXPECT_FALSE(gplan::make_key(pb.sys.a, sn, pd_colors) == gplan::make_key(pb.sys.a, sn, pd));
}

TEST(PlanFingerprint, SupernodeMapKeyed) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  const auto sn_none = gc::build_supernodes(pb.sys.a.n, {});
  const auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  EXPECT_FALSE(gplan::make_key(pb.sys.a, sn, cfg) == gplan::make_key(pb.sys.a, sn_none, cfg));
}

// ---------------------------------------------------------------------------
// Cold/warm equivalence: bit-identical application, identical CG behaviour
// ---------------------------------------------------------------------------

class PlanEquivalence : public ::testing::TestWithParam<gplan::PrecondKind> {};

TEST_P(PlanEquivalence, WarmNumericIsBitIdentical) {
  Problem pb(1e6);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  const auto cfg = config_for(GetParam());

  gplan::PlanCache cache(4);
  auto plan = cache.get(pb.sys.a, sn, cfg);
  EXPECT_EQ(cache.stats().misses, 1u);
  auto cold = gcore::make_preconditioner(cfg.precond, pb.sys.a, sn);

  // Second lookup must hit and produce the same plan object.
  auto plan2 = cache.get(pb.sys.a, sn, cfg);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(plan.get(), plan2.get());
  auto warm = plan2->numeric(pb.sys.a);

  // Bit-identical application on a deterministic input.
  std::vector<double> r(pb.sys.a.ndof());
  for (std::size_t i = 0; i < r.size(); ++i)
    r[i] = std::sin(static_cast<double>(i) * 0.73) + 0.01 * static_cast<double>(i % 7);
  std::vector<double> zc(r.size(), 0.0), zw(r.size(), 0.0);
  cold->apply(r, zc, nullptr, nullptr);
  warm->apply(r, zw, nullptr, nullptr);
  for (std::size_t i = 0; i < r.size(); ++i) {
    ASSERT_EQ(zc[i], zw[i]) << "component " << i << " differs between cold and warm factors";
  }

  // Identical CG iteration count and residual history.
  geofem::solver::CGOptions copt;
  copt.tolerance = 1e-8;
  copt.record_residuals = true;
  std::vector<double> xc(r.size(), 0.0), xw(r.size(), 0.0);
  const auto resc = geofem::solver::pcg(pb.sys.a, *cold, pb.sys.b, xc, copt);
  const auto resw = geofem::solver::pcg(pb.sys.a, *warm, pb.sys.b, xw, copt);
  EXPECT_TRUE(resc.converged());
  EXPECT_EQ(resc.iterations, resw.iterations);
  ASSERT_EQ(resc.residual_history.size(), resw.residual_history.size());
  for (std::size_t k = 0; k < resc.residual_history.size(); ++k)
    EXPECT_EQ(resc.residual_history[k], resw.residual_history[k]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PlanEquivalence,
                         ::testing::Values(gplan::PrecondKind::kBIC0, gplan::PrecondKind::kBIC1,
                                           gplan::PrecondKind::kBIC2,
                                           gplan::PrecondKind::kSBBIC0),
                         [](const auto& info) {
                           switch (info.param) {
                             case gplan::PrecondKind::kBIC0: return "BIC0";
                             case gplan::PrecondKind::kBIC1: return "BIC1";
                             case gplan::PrecondKind::kBIC2: return "BIC2";
                             case gplan::PrecondKind::kSBBIC0: return "SBBIC0";
                             default: return "other";
                           }
                         });

TEST(Plan, NumericRefactorizationTracksNewValues) {
  // One plan, two matrices with the same graph but different penalties: the
  // warm factors must equal the cold factors of EACH matrix, not stale values.
  Problem lo(1e4), hi(1e8);
  const auto sn = gc::build_supernodes(lo.sys.a.n, lo.mesh.contact_groups);
  const auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  gplan::PlanCache cache;
  auto plan = cache.get(lo.sys.a, sn, cfg);
  auto plan_hi = cache.get(hi.sys.a, sn, cfg);
  EXPECT_EQ(plan.get(), plan_hi.get()) << "penalty change must not invalidate the plan";
  EXPECT_EQ(cache.stats().hits, 1u);

  auto warm_hi = plan->numeric(hi.sys.a);
  auto cold_hi = gcore::make_preconditioner(cfg.precond, hi.sys.a, sn);
  std::vector<double> r(hi.sys.a.ndof(), 1.0), zw(r.size(), 0.0), zc(r.size(), 0.0);
  warm_hi->apply(r, zw, nullptr, nullptr);
  cold_hi->apply(r, zc, nullptr, nullptr);
  for (std::size_t i = 0; i < r.size(); ++i) ASSERT_EQ(zc[i], zw[i]);
}

TEST(Plan, VectorizedPDJDSWarmMatchesCold) {
  Problem pb(1e6);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  cfg.ordering = gplan::OrderingKind::kPDJDSMC;
  cfg.colors = 4;
  cfg.npe = 2;

  gcore::SolveConfig score;
  score.precond = cfg.precond;
  score.ordering = cfg.ordering;
  score.colors = cfg.colors;
  score.npe = cfg.npe;
  gplan::PlanCache cache;
  score.plan_cache = &cache;

  const auto sn_core = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  const auto rep_cold = gcore::solve_system(pb.sys, sn_core, score);
  const auto rep_warm = gcore::solve_system(pb.sys, sn_core, score);
  EXPECT_TRUE(rep_cold.cg.converged());
  EXPECT_FALSE(rep_cold.plan_reused);
  EXPECT_TRUE(rep_warm.plan_reused);
  EXPECT_EQ(rep_cold.cg.iterations, rep_warm.cg.iterations);
  ASSERT_EQ(rep_cold.solution.size(), rep_warm.solution.size());
  for (std::size_t i = 0; i < rep_cold.solution.size(); ++i)
    EXPECT_EQ(rep_cold.solution[i], rep_warm.solution[i]);
}

TEST(Plan, WarmPDJDSNumericRunsNoSymbolicWork) {
  // The PDJDS plan holds the DJDSBIC symbolic (unit split, selective-block
  // gather schedule, loop statistics): a warm numeric phase is refill +
  // factor + pack, with no schedule rebuilt.
  Problem pb(1e6);
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  auto cfg = config_for(gplan::PrecondKind::kSBBIC0);
  cfg.ordering = gplan::OrderingKind::kPDJDSMC;
  cfg.colors = 4;
  cfg.npe = 2;
  geofem::obs::Registry cold_reg;
  std::unique_ptr<gplan::SolvePlan> plan;
  {
    geofem::obs::Attach attach(&cold_reg);
    plan = std::make_unique<gplan::SolvePlan>(pb.sys.a, sn, cfg);
  }
  auto names = [](const geofem::obs::Registry& reg) {
    std::vector<std::string> out;
    for (const auto& sp : reg.snapshot().spans) out.push_back(sp.name);
    return out;
  };
  const auto cold = names(cold_reg);
  EXPECT_NE(std::find(cold.begin(), cold.end(), "precond.symbolic.SB-BIC(0)"), cold.end());

  geofem::obs::Registry warm_reg;
  {
    geofem::obs::Attach attach(&warm_reg);
    const auto prec = plan->numeric(pb.sys.a);
    ASSERT_NE(prec, nullptr);
  }
  const auto warm = names(warm_reg);
  EXPECT_NE(std::find(warm.begin(), warm.end(), "plan.numeric"), warm.end());
  EXPECT_NE(std::find(warm.begin(), warm.end(), "precond.numeric.SB-BIC(0)"), warm.end());
  for (const auto& n : warm) EXPECT_EQ(n.find("symbolic"), std::string::npos) << n;
}

TEST(Plan, CoreSolveReportsCacheCounters) {
  Problem pb;
  gcore::SolveConfig cfg;
  cfg.precond = gcore::PrecondKind::kBIC1;
  gplan::PlanCache cache;
  cfg.plan_cache = &cache;
  const auto sn_core = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  const auto r1 = gcore::solve_system(pb.sys, sn_core, cfg);
  EXPECT_FALSE(r1.plan_reused);
  EXPECT_EQ(r1.plan_cache.misses, 1u);
  const auto r2 = gcore::solve_system(pb.sys, sn_core, cfg);
  EXPECT_TRUE(r2.plan_reused);
  EXPECT_EQ(r2.plan_cache.hits, 1u);
  EXPECT_EQ(r2.cg.iterations, r1.cg.iterations);
}

// ---------------------------------------------------------------------------
// Cache eviction and stale-plan rejection
// ---------------------------------------------------------------------------

TEST(PlanCache, LRUEviction) {
  Problem p1(1e4, {3, 3, 2, 3, 3});
  Problem p2(1e4, {4, 3, 2, 3, 3});
  Problem p3(1e4, {5, 3, 2, 3, 3});
  const auto cfg = config_for(gplan::PrecondKind::kBIC0);
  auto sn = [](const Problem& p) {
    return gc::build_supernodes(p.sys.a.n, p.mesh.contact_groups);
  };

  gplan::PlanCache cache(2);
  auto a1 = cache.get(p1.sys.a, sn(p1), cfg);
  auto a2 = cache.get(p2.sys.a, sn(p2), cfg);
  EXPECT_EQ(cache.stats().entries, 2u);
  auto a3 = cache.get(p3.sys.a, sn(p3), cfg);  // evicts p1 (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // p1 was evicted: re-getting it is a miss; p3 is resident: a hit.
  cache.get(p1.sys.a, sn(p1), cfg);
  EXPECT_EQ(cache.stats().misses, 4u);
  cache.get(p3.sys.a, sn(p3), cfg);
  EXPECT_EQ(cache.stats().hits, 1u);

  // The evicted plan stays usable while referenced.
  auto prec = a1->numeric(p1.sys.a);
  EXPECT_GT(prec->memory_bytes(), 0u);
}

TEST(PlanCache, RecentUseProtectsFromEviction) {
  Problem p1(1e4, {3, 3, 2, 3, 3});
  Problem p2(1e4, {4, 3, 2, 3, 3});
  Problem p3(1e4, {5, 3, 2, 3, 3});
  const auto cfg = config_for(gplan::PrecondKind::kBIC0);
  auto sn = [](const Problem& p) {
    return gc::build_supernodes(p.sys.a.n, p.mesh.contact_groups);
  };

  gplan::PlanCache cache(2);
  cache.get(p1.sys.a, sn(p1), cfg);
  cache.get(p2.sys.a, sn(p2), cfg);
  cache.get(p1.sys.a, sn(p1), cfg);  // touch p1: now p2 is LRU
  cache.get(p3.sys.a, sn(p3), cfg);  // evicts p2
  cache.get(p1.sys.a, sn(p1), cfg);
  EXPECT_EQ(cache.stats().hits, 2u);  // p1 touched twice after insert
}

TEST(PlanCache, ClearResets) {
  Problem pb;
  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gplan::PlanCache cache;
  cache.get(pb.sys.a, sn, config_for(gplan::PrecondKind::kBIC0));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.get(pb.sys.a, sn, config_for(gplan::PrecondKind::kBIC0));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Plan, StalePlanRejectsChangedGraph) {
  Problem small(1e4, {3, 3, 2, 3, 3});
  Problem big(1e4, {4, 4, 3, 4, 4});
  const auto sn_s = gc::build_supernodes(small.sys.a.n, small.mesh.contact_groups);
  const auto sn_b = gc::build_supernodes(big.sys.a.n, big.mesh.contact_groups);
  const auto cfg = config_for(gplan::PrecondKind::kSBBIC0);

  gplan::PlanCache cache;
  auto plan = cache.get(small.sys.a, sn_s, cfg);
  // A different graph is a different key — never a false hit...
  cache.get(big.sys.a, sn_b, cfg);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  // ...and numeric() on the wrong matrix must throw, not corrupt memory.
  EXPECT_THROW((void)plan->numeric(big.sys.a), geofem::Error);
  EXPECT_FALSE(plan->matches(big.sys.a, sn_b, cfg));
  EXPECT_TRUE(plan->matches(small.sys.a, sn_s, cfg));
}

TEST(Plan, SameDimensionsDifferentGraphRejected) {
  // Same n and nnz, permuted column indices: the graph hash must catch it.
  Problem pb;
  gs::BlockCSR tampered = pb.sys.a;
  int row = -1;
  for (int i = 0; i < tampered.n && row < 0; ++i)
    if (tampered.rowptr[i + 1] - tampered.rowptr[i] >= 2) row = i;
  ASSERT_GE(row, 0);
  std::swap(tampered.colind[tampered.rowptr[row]], tampered.colind[tampered.rowptr[row] + 1]);

  const auto sn = gc::build_supernodes(pb.sys.a.n, pb.mesh.contact_groups);
  gplan::SolvePlan plan(pb.sys.a, sn, config_for(gplan::PrecondKind::kBIC0));
  EXPECT_THROW((void)plan.numeric(tampered), geofem::Error);
}

// ---------------------------------------------------------------------------
// Sharded cache: per-shard stats under concurrent eviction, hash collisions
// ---------------------------------------------------------------------------

TEST(PlanCacheShards, StatsConsistentUnderConcurrentEviction) {
  // 6 distinct graphs churning through a 2-shard cache of total capacity 4:
  // every completed get() must be counted exactly once (hits + misses ==
  // lookups), shard totals must add up to stats(), and no shard may exceed
  // its per-shard budget even while evicting concurrently.
  std::vector<Problem> problems;
  std::vector<gc::Supernodes> sns;
  for (int nx = 3; nx < 9; ++nx) {
    problems.emplace_back(1e4, gm::SimpleBlockParams{nx, 3, 2, 3, 3});
    sns.push_back(gc::build_supernodes(problems.back().sys.a.n,
                                       problems.back().mesh.contact_groups));
  }
  const auto cfg = config_for(gplan::PrecondKind::kDiagonal);

  gplan::PlanCache cache(4, 2);
  ASSERT_EQ(cache.shard_count(), 2u);
  constexpr int kThreads = 4, kRounds = 10;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < problems.size(); ++i) {
          // rotate the start per thread so eviction interleaves
          const std::size_t j = (i + static_cast<std::size_t>(t)) % problems.size();
          (void)cache.get(problems[j].sys.a, sns[j], cfg);
        }
    });
  }
  for (auto& w : workers) w.join();

  const auto totals = cache.stats();
  EXPECT_EQ(totals.hits + totals.misses,
            static_cast<std::uint64_t>(kThreads) * kRounds * problems.size());
  EXPECT_LE(totals.entries, cache.capacity());

  const auto per_shard = cache.shard_stats();
  ASSERT_EQ(per_shard.size(), 2u);
  gplan::CacheStats summed;
  for (const auto& s : per_shard) {
    summed += s;
    EXPECT_LE(s.entries, cache.capacity() / cache.shard_count());
    // Every resident plan came from a miss that wasn't (or hasn't been)
    // evicted; racing builds on one key may discard an insert, never add one.
    EXPECT_LE(s.entries, s.misses - s.evictions);
  }
  EXPECT_EQ(summed.hits, totals.hits);
  EXPECT_EQ(summed.misses, totals.misses);
  EXPECT_EQ(summed.evictions, totals.evictions);
  EXPECT_EQ(summed.entries, totals.entries);
}

namespace {

// FNV-1a step h' = (h ^ w) * kPrime run backwards: invert the multiply with
// the modular inverse of the (odd) prime in Z/2^64, then undo the xor.
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_prime_inverse() {
  std::uint64_t x = kFnvPrime;  // Newton: x_{k+1} = x_k (2 - p x_k) doubles precision
  for (int i = 0; i < 6; ++i) x *= 2 - kFnvPrime * x;
  return x;
}

std::uint64_t word_of(int a, int b) {
  const int pair[2] = {a, b};
  std::uint64_t w;
  std::memcpy(&w, pair, sizeof w);
  return w;
}

}  // namespace

TEST(PlanCacheShards, EqualHashDifferentDimensionsAreDistinctEntries) {
  // Force a full 64-bit fingerprint collision between two structurally
  // different matrices and check the lookup path tells them apart by the
  // PlanKey's (n, nnz) second factor — two resident entries, no false hit.
  //
  // Construction: diagonal-pattern matrices under kDiagonal/kNatural, whose
  // plans never dereference colind — so B's last two colind words are free
  // bytes we steer. Replaying make_key's hash stream (pod(n), ints(rowptr),
  // ints(colind), ints(node_to_super), pod(precond), pod(ordering) — all
  // invertible FNV-1a steps) backwards from A's digest yields the one
  // compensating colind word that makes the digests equal.
  const auto cfg = config_for(gplan::PrecondKind::kDiagonal);

  gs::BlockCSR a;
  a.n = 2;
  a.rowptr = {0, 1, 2};
  a.colind = {0, 1};
  a.val.assign(2 * 9, 1.0);
  const auto sn_a = gc::build_supernodes(2, {});
  const auto key_a = gplan::make_key(a, sn_a, cfg);

  gs::BlockCSR b;
  b.n = 4;
  b.rowptr = {0, 1, 2, 3, 4};
  b.colind = {0, 1, 0, 0};  // last word steered below
  b.val.assign(4 * 9, 1.0);
  const auto sn_b = gc::build_supernodes(4, {});

  // Forward state up to (excluding) the final colind word.
  gplan::Fnv1a pre;
  pre.pod(b.n);
  pre.ints(b.rowptr);
  pre.ints(std::span<const int>(b.colind).first(2));
  const std::uint64_t h_pre = pre.digest();

  // Backward from the target over the suffix: ints(node_to_super {0,1,2,3})
  // folds two words, then pod(precond=0) and pod(ordering=0) fold 8 zero
  // bytes (one multiply each, xor with 0).
  const std::uint64_t pinv = fnv_prime_inverse();
  ASSERT_EQ(kFnvPrime * pinv, 1ULL);
  std::uint64_t h = key_a.hash;
  for (int i = 0; i < 8; ++i) h *= pinv;               // undo the 8 config bytes
  h = h * pinv ^ word_of(2, 3);                        // undo node_to_super word 2
  h = h * pinv ^ word_of(0, 1);                        // undo node_to_super word 1
  const std::uint64_t w = h * pinv ^ h_pre;            // compensating colind word
  std::memcpy(b.colind.data() + 2, &w, sizeof w);

  const auto key_b = gplan::make_key(b, sn_b, cfg);
  ASSERT_EQ(key_b.hash, key_a.hash) << "collision construction must hold";
  EXPECT_FALSE(key_a == key_b);  // (n, nnz) still distinguish them

  gplan::PlanCache cache(8);
  auto plan_a = cache.get(a, sn_a, cfg);
  auto plan_b = cache.get(b, sn_b, cfg);
  EXPECT_EQ(cache.stats().misses, 2u) << "colliding keys must not alias";
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(plan_a.get(), plan_b.get());

  // Re-lookups walk the same bucket past the colliding key and still resolve
  // to the right plan.
  EXPECT_EQ(cache.get(a, sn_a, cfg).get(), plan_a.get());
  EXPECT_EQ(cache.get(b, sn_b, cfg).get(), plan_b.get());
  EXPECT_EQ(cache.stats().hits, 2u);
}

// ---------------------------------------------------------------------------
// Distributed: one plan per rank, warm re-solve, identical iterations
// ---------------------------------------------------------------------------

TEST(PlanDist, FourRanksOnePlanEach) {
  Problem pb(1e6);
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);
  ASSERT_EQ(systems.size(), 4u);

  gplan::PlanCache cache(8);
  gd::DistOptions opt;
  opt.cg.tolerance = 1e-8;
  opt.plan_cache = &cache;
  const auto factory =
      gd::make_plan_factory(cache, config_for(gplan::PrecondKind::kSBBIC0),
                            pb.mesh.contact_groups);

  std::vector<double> x_cold, x_warm;
  const auto cold = gd::solve_distributed(systems, factory, opt, &x_cold);
  EXPECT_TRUE(cold.converged());
  EXPECT_EQ(cold.plan_cache.misses, 4u);  // one plan per rank
  EXPECT_EQ(cold.plan_cache.hits, 0u);
  EXPECT_EQ(cold.plan_cache.entries, 4u);

  const auto warm = gd::solve_distributed(systems, factory, opt, &x_warm);
  EXPECT_TRUE(warm.converged());
  EXPECT_EQ(warm.plan_cache.misses, 4u);  // no new builds
  EXPECT_EQ(warm.plan_cache.hits, 4u);
  EXPECT_EQ(warm.iterations, cold.iterations);
  ASSERT_EQ(x_cold.size(), x_warm.size());
  for (std::size_t i = 0; i < x_cold.size(); ++i) EXPECT_EQ(x_cold[i], x_warm[i]);
}

TEST(PlanDist, MatchesPlainFactory) {
  // The plan-cached factory must agree with the direct cold factory.
  Problem pb(1e6);
  auto p = gpart::rcb_contact_aware(pb.mesh, 4);
  auto systems = gpart::distribute(pb.sys.a, pb.sys.b, p);

  gd::PrecondFactory plain = [&](const gpart::LocalSystem& ls, const gs::BlockCSR& aii, geofem::precond::Precision) {
    const auto sn = gc::build_supernodes(aii.n, ls.local_contact_groups(pb.mesh.contact_groups));
    return gcore::make_preconditioner(gcore::PrecondKind::kSBBIC0, aii, sn);
  };
  gplan::PlanCache cache;
  const auto planned =
      gd::make_plan_factory(cache, config_for(gplan::PrecondKind::kSBBIC0),
                            pb.mesh.contact_groups);

  std::vector<double> x_plain, x_planned;
  const auto r_plain = gd::solve_distributed(systems, plain, {}, &x_plain);
  const auto r_planned = gd::solve_distributed(systems, planned, {}, &x_planned);
  EXPECT_EQ(r_plain.iterations, r_planned.iterations);
  ASSERT_EQ(x_plain.size(), x_planned.size());
  for (std::size_t i = 0; i < x_plain.size(); ++i) EXPECT_EQ(x_plain[i], x_planned[i]);
}
