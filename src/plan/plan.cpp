#include "plan/plan.hpp"

#include "core/status.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "precond/diagonal.hpp"
#include "precond/two_level.hpp"
#include "reorder/coloring.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace geofem::plan {

using sparse::kB;

SolvePlan::SolvePlan(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                     const PlanConfig& cfg, const coarse::AggregateMap* agg, int restrict_nodes)
    : cfg_(cfg), sn_(sn) {
  obs::ScopedSpan span("plan.symbolic");
  util::Timer timer;
  graph_hash_ = graph_fingerprint(a);
  key_ = make_key(a, sn, cfg, agg, restrict_nodes);
  if (cfg.coarse) {
    GEOFEM_CHECK(agg != nullptr, "SolvePlan: coarse-enabled config needs an aggregate map");
    coarse_ = std::make_shared<coarse::CoarseSymbolic>(
        *agg, restrict_nodes < 0 ? a.n : restrict_nodes);
  }

  if (cfg.ordering == OrderingKind::kNatural) {
    switch (cfg.precond) {
      case PrecondKind::kDiagonal:
      case PrecondKind::kBlockDiagonal:
      case PrecondKind::kBIC0:
        break;  // no symbolic state beyond the matrix graph itself
      case PrecondKind::kScalarIC0:
        ic0_ = precond::scalar_ic0_symbolic(a);
        break;
      case PrecondKind::kBIC1:
        iluk_ = precond::iluk_symbolic(a, 1);
        break;
      case PrecondKind::kBIC2:
        iluk_ = precond::iluk_symbolic(a, 2);
        break;
      case PrecondKind::kSBBIC0:
        sb_ = precond::sbbic0_symbolic(a, sn_);
        break;
    }
  } else {
    // PDJDS/MC path: only the no-fill preconditioners have a vectorized form.
    GEOFEM_CHECK(ordering_supports(cfg.ordering, cfg.precond),
                 "PDJDS path supports BIC(0) and SB-BIC(0)");
    const bool selective = cfg.precond == PrecondKind::kSBBIC0;
    const auto g = sparse::graph_of(a);
    const bool cmrcm = cfg.ordering == OrderingKind::kPDJDSCMRCM;
    auto color_graph = [&](const sparse::Graph& gr) {
      return cmrcm ? reorder::cm_rcm(gr, cfg.colors) : reorder::multicolor(gr, cfg.colors);
    };
    reorder::Coloring coloring;
    if (selective) {
      const auto q = reorder::quotient_graph(g, sn_.node_to_super, sn_.count());
      coloring = reorder::lift_coloring(color_graph(q), sn_.node_to_super, a.n);
    } else {
      coloring = color_graph(g);
    }
    reorder::DJDSOptions opt;
    opt.npe = cfg.npe;
    opt.sort_supernodes_by_size = cfg.sort_supernodes;
    dj_ = std::make_unique<reorder::DJDSMatrix>(a, coloring, selective ? &sn_ : nullptr, opt);
    djs_ = precond::djds_symbolic(a, *dj_);
  }
  symbolic_seconds_ = timer.seconds();
}

std::size_t SolvePlan::memory_bytes() const {
  std::size_t bytes = sn_.node_to_super.size() * sizeof(int);
  for (const auto& mem : sn_.members) bytes += mem.size() * sizeof(int);
  if (iluk_) bytes += iluk_->memory_bytes();
  if (ic0_) bytes += ic0_->memory_bytes();
  if (sb_) bytes += sb_->memory_bytes();
  if (dj_) bytes += dj_->memory_bytes() + djs_->memory_bytes();
  return bytes;
}

precond::PreconditionerPtr SolvePlan::numeric(const sparse::BlockCSR& a) const {
  if (a.n != key_.n || a.nnz_blocks() != key_.nnz_blocks || graph_fingerprint(a) != graph_hash_)
    throw Error(StatusCode::kStalePlan,
                "SolvePlan::numeric: matrix graph does not match the plan");
  obs::ScopedSpan span("plan.numeric");
  if (dj_) {
    std::lock_guard lock(numeric_mtx_);
    dj_->refill(a);
    return std::make_unique<precond::DJDSBIC>(a, *dj_, djs_, cfg_.precision);
  }
  switch (cfg_.precond) {
    case PrecondKind::kDiagonal:
      return std::make_unique<precond::DiagonalScaling>(a, cfg_.precision);
    case PrecondKind::kBlockDiagonal:
      return std::make_unique<precond::BlockDiagonal>(a, cfg_.precision);
    case PrecondKind::kScalarIC0:
      return std::make_unique<precond::ScalarIC0>(a, ic0_, cfg_.precision);
    case PrecondKind::kBIC0: return std::make_unique<precond::BIC0>(a, cfg_.precision);
    case PrecondKind::kBIC1:
    case PrecondKind::kBIC2:
      return std::make_unique<precond::BlockILUk>(a, iluk_, cfg_.precision);
    case PrecondKind::kSBBIC0:
      return std::make_unique<precond::SBBIC0>(a, sn_, sb_, cfg_.precision);
  }
  throw Error(StatusCode::kInvalidArgument, "unknown preconditioner kind");
}

std::shared_ptr<const std::vector<double>> SolvePlan::coarse_contribution(
    const sparse::BlockCSR& a) const {
  GEOFEM_CHECK(coarse_ != nullptr, "coarse_contribution: plan has no coarse space");
  if (a.n != key_.n || a.nnz_blocks() != key_.nnz_blocks || graph_fingerprint(a) != graph_hash_)
    throw Error(StatusCode::kStalePlan,
                "SolvePlan::coarse_contribution: matrix graph does not match the plan");
  Fnv1a vh;
  vh.doubles(std::span<const double>(a.val.data(), a.val.size()));
  const std::uint64_t h = vh.digest();
  std::lock_guard lock(numeric_mtx_);
  if (!coarse_contrib_ || coarse_val_hash_ != h) {
    obs::ScopedSpan span("plan.coarse.assemble");
    coarse_contrib_ =
        std::make_shared<const std::vector<double>>(coarse::accumulate(a, *coarse_));
    coarse_op_.reset();  // the factored operator memo is for these values only
    coarse_val_hash_ = h;
  }
  return coarse_contrib_;
}

std::shared_ptr<const coarse::CoarseOperator> SolvePlan::coarse_numeric(
    const sparse::BlockCSR& a) const {
  auto contrib = coarse_contribution(a);  // refreshes the value hash
  std::lock_guard lock(numeric_mtx_);
  if (!coarse_op_) {
    obs::ScopedSpan span("plan.coarse.factor");
    coarse_op_ = std::make_shared<const coarse::CoarseOperator>(coarse_, *contrib);
  }
  return coarse_op_;
}

PlannedPreconditioner::PlannedPreconditioner(std::shared_ptr<const SolvePlan> plan,
                                             const sparse::BlockCSR& a)
    : plan_(std::move(plan)) {
  GEOFEM_CHECK(plan_ != nullptr, "PlannedPreconditioner: null plan");
  inner_ = plan_->numeric(a);
  if (plan_->vectorized()) {
    pr_.resize(static_cast<std::size_t>(plan_->key().n) * kB);
    pz_.resize(pr_.size());
  }
}

void PlannedPreconditioner::apply(std::span<const double> r, std::span<double> z,
                                  util::FlopCounter* flops, util::LoopStats* loops) const {
  if (!plan_->vectorized()) {
    inner_->apply(r, z, flops, loops);
    return;
  }
  const auto& perm = plan_->djds()->perm();
  const int n = plan_->key().n;
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < kB; ++c)
      pr_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
          static_cast<std::size_t>(c)] = r[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)];
  inner_->apply(pr_, pz_, flops, loops);
  for (int i = 0; i < n; ++i)
    for (int c = 0; c < kB; ++c)
      z[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)] =
          pz_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
              static_cast<std::size_t>(c)];
}

std::function<precond::PreconditionerPtr(const sparse::BlockCSR&)> cached_builder(
    PlanCache& cache, PlanConfig cfg, std::vector<std::vector<int>> groups) {
  // The supernode map is a pure function of (n, groups), so detect it once
  // per matrix size instead of on every refactorization of a Newton loop.
  auto memo = std::make_shared<std::pair<int, contact::Supernodes>>(-1, contact::Supernodes{});
  return [&cache, cfg, groups = std::move(groups),
          memo](const sparse::BlockCSR& a) -> precond::PreconditionerPtr {
    if (memo->first != a.n) *memo = {a.n, contact::build_supernodes(a.n, groups)};
    return std::make_unique<PlannedPreconditioner>(cache.get(a, memo->second, cfg), a);
  };
}

std::function<precond::PreconditionerPtr(const sparse::BlockCSR&)> cached_builder(
    PlanCache& cache, PlanConfig cfg, std::vector<std::vector<int>> groups, coarse::Options copt,
    coarse::SetupStatus* status) {
  if (!copt.enabled) {
    if (status) *status = coarse::SetupStatus::kOff;
    return cached_builder(cache, cfg, std::move(groups));
  }
  cfg.coarse = true;
  struct Memo {
    int n = -1;
    contact::Supernodes sn;
    coarse::AggregateMap agg;
  };
  auto memo = std::make_shared<Memo>();
  return [&cache, cfg, copt, status, groups = std::move(groups),
          memo](const sparse::BlockCSR& a) -> precond::PreconditionerPtr {
    if (memo->n != a.n) {
      memo->n = a.n;
      memo->sn = contact::build_supernodes(a.n, groups);
      memo->agg = coarse::single_aggregate(a.n);
      if (copt.aggregates == coarse::Aggregates::kPerContactGroup)
        memo->agg = coarse::refine_by_groups(std::move(memo->agg), groups);
    }
    auto plan = cache.get(a, memo->sn, cfg, nullptr, &memo->agg);
    auto fine = std::make_unique<PlannedPreconditioner>(plan, a);
    try {
      // Factor the coarse level before handing `fine` to the wrapper, so a
      // singular A_c leaves a valid one-level preconditioner to fall back on.
      auto op = plan->coarse_numeric(a);
      if (status) *status = coarse::SetupStatus::kActive;
      return std::make_unique<precond::TwoLevel>(std::move(fine), std::move(op), a, copt.mode);
    } catch (const Error& e) {
      if (e.code() != StatusCode::kFactorizationFailed) throw;
      if (obs::Registry* reg = obs::current()) reg->counter("coarse.degraded")->add(1);
      if (status) *status = coarse::SetupStatus::kDegraded;
      return fine;
    }
  };
}

}  // namespace geofem::plan
