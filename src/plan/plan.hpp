#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "coarse/coarse.hpp"
#include "contact/penalty.hpp"
#include "plan/cache.hpp"
#include "plan/fingerprint.hpp"
#include "precond/bic.hpp"
#include "precond/djds_bic.hpp"
#include "precond/preconditioner.hpp"
#include "precond/sb_bic0.hpp"
#include "precond/scalar_ic0.hpp"
#include "reorder/djds.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::plan {

/// Everything structure-dependent about one linear system, built once and
/// reused across numeric refactorizations: the graph fingerprint, the owned
/// supernode map, the preconditioner's symbolic pattern (level-of-fill,
/// SB-BIC(0) factor schedule and sweep lists, scalar expansion) and — on the
/// PDJDS orderings — the coloring, the jagged-diagonal layout and the DJDSBIC
/// symbolic (unit split, gather schedule, loop statistics), so a PDJDS
/// numeric() is refill + factor + pack.
///
/// numeric() revalues the plan against a matrix with the *same graph* and
/// returns a freshly factored preconditioner. The natural-ordering kinds only
/// read plan state, so concurrent numeric() calls are safe; the PDJDS path
/// mutates the plan-owned DJDSMatrix values and is serialized by an internal
/// mutex (concurrent *solves* sharing one vectorized plan are not supported —
/// give each rank its own plan, which distinct local graphs do naturally).
class SolvePlan {
 public:
  /// Coarse-enabled configs (cfg.coarse) additionally take the aggregate map
  /// and the restricted-node count (-1 = all of a.n); the plan then owns the
  /// CoarseSymbolic and memoizes the Galerkin assembly across numeric phases.
  SolvePlan(const sparse::BlockCSR& a, const contact::Supernodes& sn, const PlanConfig& cfg,
            const coarse::AggregateMap* agg = nullptr, int restrict_nodes = -1);

  [[nodiscard]] const PlanKey& key() const { return key_; }
  [[nodiscard]] const PlanConfig& config() const { return cfg_; }
  [[nodiscard]] const contact::Supernodes& supernodes() const { return sn_; }

  /// True on the PDJDS orderings (plan owns a DJDSMatrix).
  [[nodiscard]] bool vectorized() const { return dj_ != nullptr; }
  [[nodiscard]] const reorder::DJDSMatrix* djds() const { return dj_.get(); }

  /// Wall-clock seconds the symbolic phase took when the plan was built.
  [[nodiscard]] double symbolic_seconds() const { return symbolic_seconds_; }
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Whether this plan was built for exactly (a's graph, sn, cfg[, agg]).
  [[nodiscard]] bool matches(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                             const PlanConfig& cfg, const coarse::AggregateMap* agg = nullptr,
                             int restrict_nodes = -1) const {
    return make_key(a, sn, cfg, agg, restrict_nodes) == key_;
  }

  /// Numeric phase: factor `a` on the precomputed structure. Throws
  /// geofem::Error(kStalePlan) if `a`'s graph differs from the plan's.
  /// The result references `a` (and, when vectorized, this plan) — both must
  /// outlive it; PlannedPreconditioner pins the plan automatically.
  [[nodiscard]] precond::PreconditionerPtr numeric(const sparse::BlockCSR& a) const;

  /// True when the plan was built with cfg.coarse and an aggregate map.
  [[nodiscard]] bool has_coarse() const { return coarse_ != nullptr; }
  [[nodiscard]] std::shared_ptr<const coarse::CoarseSymbolic> coarse_symbolic() const {
    return coarse_;
  }

  /// This rank's Galerkin contribution R_loc A_loc P_loc as a dense
  /// (dim x dim) column block, memoized on a hash of a.val so the second and
  /// later λ-cycles on unchanged values skip the assembly pass entirely.
  /// Throws kStalePlan on a graph mismatch, GEOFEM_CHECKs has_coarse().
  [[nodiscard]] std::shared_ptr<const std::vector<double>> coarse_contribution(
      const sparse::BlockCSR& a) const;

  /// Single-address-space convenience: assemble (memoized) and factor the
  /// coarse operator for `a`. Throws Error(kFactorizationFailed) when the
  /// Galerkin operator is singular — callers degrade to one level.
  [[nodiscard]] std::shared_ptr<const coarse::CoarseOperator> coarse_numeric(
      const sparse::BlockCSR& a) const;

 private:
  PlanKey key_;
  std::uint64_t graph_hash_ = 0;
  PlanConfig cfg_;
  contact::Supernodes sn_;
  double symbolic_seconds_ = 0.0;
  // symbolic state, one non-null per kind (none for Diagonal / BIC(0))
  std::shared_ptr<const precond::ILUkSymbolic> iluk_;
  std::shared_ptr<const precond::ScalarIC0Symbolic> ic0_;
  std::shared_ptr<const precond::SBBIC0Symbolic> sb_;
  // PDJDS orderings: plan-owned layout, revalued in place by numeric(), and
  // the preconditioner's structure on it (units, gather schedule, stats)
  std::unique_ptr<reorder::DJDSMatrix> dj_;
  std::shared_ptr<const precond::DJDSSymbolic> djs_;
  // two-level schedule (cfg.coarse): symbolic built once, numeric memoized on
  // a value hash so warm λ-cycles skip the Galerkin assembly (and, in the
  // single-address-space path, the factorization too)
  std::shared_ptr<const coarse::CoarseSymbolic> coarse_;
  mutable std::uint64_t coarse_val_hash_ = 0;
  mutable std::shared_ptr<const std::vector<double>> coarse_contrib_;
  mutable std::shared_ptr<const coarse::CoarseOperator> coarse_op_;
  mutable std::mutex numeric_mtx_;
};

/// A numeric factorization bundled with the plan that produced it, presenting
/// the ORIGINAL row ordering at its interface (the PDJDS factor is permuted
/// internally, like OwnedDJDSBIC). Keeps the plan alive past cache eviction.
class PlannedPreconditioner final : public precond::Preconditioner {
 public:
  PlannedPreconditioner(std::shared_ptr<const SolvePlan> plan, const sparse::BlockCSR& a);

  void apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
             util::LoopStats* loops) const override;

  [[nodiscard]] std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] precond::Desc desc() const override { return inner_->desc(); }

  [[nodiscard]] const SolvePlan& plan() const { return *plan_; }

 private:
  std::shared_ptr<const SolvePlan> plan_;
  precond::PreconditionerPtr inner_;
  mutable std::vector<double> pr_, pz_;  ///< permutation buffers (PDJDS only)
};

/// Preconditioner builder for repeated solves on one structure (nonlin::alm):
/// builds the supernode map from `groups`, fetches the plan from `cache`, and
/// returns a numeric factorization that pins its plan.
[[nodiscard]] std::function<precond::PreconditionerPtr(const sparse::BlockCSR&)> cached_builder(
    PlanCache& cache, PlanConfig cfg, std::vector<std::vector<int>> groups);

/// Two-level variant: wraps the planned one-level factorization in a
/// precond::TwoLevel when `copt.enabled`. Aggregation is one aggregate for
/// the whole matrix (kPerDomain — a single address space is one domain) or
/// one per contact group of ≥2 nodes (kPerContactGroup). A singular coarse
/// operator degrades to the one-level preconditioner instead of failing the
/// solve; `status` (when non-null) receives kActive or kDegraded on every
/// build so callers can report it.
[[nodiscard]] std::function<precond::PreconditionerPtr(const sparse::BlockCSR&)> cached_builder(
    PlanCache& cache, PlanConfig cfg, std::vector<std::vector<int>> groups, coarse::Options copt,
    coarse::SetupStatus* status = nullptr);

}  // namespace geofem::plan
