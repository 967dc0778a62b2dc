#include "precond/sb_bic0.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/status.hpp"
#include "obs/span.hpp"
#include "simd/block3.hpp"
#include "simd/lu3.hpp"
#include "simd/multirhs.hpp"
#include "util/check.hpp"

// GCC 12 emits a false-positive -Waggressive-loop-optimizations here: after
// inlining DenseLU into the factorization it reasons about the (impossible)
// case of a selective block with ~2^31 rows. Block dimensions are 3 * group
// size (single digits in practice, bounded by the node count regardless).
#pragma GCC diagnostic ignored "-Waggressive-loop-optimizations"

namespace geofem::precond {

using sparse::kB;
using sparse::kBB;

std::size_t SBSymbolic::memory_bytes() const {
  return (dims.size() + intra_entry.size() + coup_ptr.size() + coup_k.size() +
          gather_entry.size()) *
             sizeof(int) +
         (intra_ptr.size() + intra_off.size() + gather_ptr.size() + gather_off.size()) *
             sizeof(std::int64_t);
}

std::size_t SBBIC0Symbolic::memory_bytes() const {
  return (sb ? sb->memory_bytes() : 0) +
         (fwd.rows.size() + fwd.level_ptr.size() + bwd.rows.size() + bwd.level_ptr.size() +
          row_ptr.size() + row_node.size() + lower_ptr.size() + upper_ptr.size()) *
             sizeof(int) +
         (lower.size() + upper.size()) * sizeof(Coupling) +
         apply_loops.entries().size() * sizeof(util::LoopStats::Entry);
}

std::shared_ptr<const SBBIC0Symbolic> sbbic0_symbolic(const sparse::BlockCSR& a,
                                                      const contact::Supernodes& sn,
                                                      bool modified) {
  auto out = std::make_shared<SBBIC0Symbolic>();
  SBBIC0Symbolic& sym = *out;
  sym.sb = sb_symbolic(a, sn, modified);
  // Member rows split into lower / upper coupling lists (row entry order),
  // supernode dependency levels of both sweeps, and the loop lengths one
  // apply reports.
  const int ns = sn.count();
  sym.row_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  sym.row_node.reserve(static_cast<std::size_t>(a.n));
  sym.lower_ptr.assign(1, 0);
  sym.upper_ptr.assign(1, 0);
  // Forward: split every member row, level = 1 + deepest earlier neighbour;
  // one loop of (lower couplings + 1) per supernode, ascending.
  std::vector<int> lev(static_cast<std::size_t>(ns), 0);
  for (int s = 0; s < ns; ++s) {
    const std::size_t q0 = sym.row_node.size();
    int l = 0;
    for (int i : sn.members[static_cast<std::size_t>(s)]) {
      sym.row_node.push_back(i);
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        const int sj = sn.node_to_super[static_cast<std::size_t>(j)];
        if (sj < s) {
          sym.lower.push_back({e, j});
          l = std::max(l, lev[static_cast<std::size_t>(sj)] + 1);
        } else if (sj > s) {
          sym.upper.push_back({e, j});
        }
      }
      sym.lower_ptr.push_back(static_cast<int>(sym.lower.size()));
      sym.upper_ptr.push_back(static_cast<int>(sym.upper.size()));
    }
    const std::size_t q1 = sym.row_node.size();
    sym.row_ptr[static_cast<std::size_t>(s) + 1] = static_cast<int>(q1);
    lev[static_cast<std::size_t>(s)] = l;
    sym.apply_loops.record(sym.lower_ptr[q1] - sym.lower_ptr[q0] + 1);
  }
  sym.fwd = par::schedule_from_levels(lev);
  // Backward: the same over later neighbours, descending.
  for (int s = ns - 1; s >= 0; --s) {
    const auto q0 = static_cast<std::size_t>(sym.row_ptr[static_cast<std::size_t>(s)]);
    const auto q1 = static_cast<std::size_t>(sym.row_ptr[static_cast<std::size_t>(s) + 1]);
    int l = 0;
    for (int p = sym.upper_ptr[q0]; p < sym.upper_ptr[q1]; ++p) {
      const int sj =
          sn.node_to_super[static_cast<std::size_t>(sym.upper[static_cast<std::size_t>(p)].col)];
      l = std::max(l, lev[static_cast<std::size_t>(sj)] + 1);
    }
    lev[static_cast<std::size_t>(s)] = l;
    sym.apply_loops.record(sym.upper_ptr[q1] - sym.upper_ptr[q0] + 1);
  }
  sym.bwd = par::schedule_from_levels(lev);
  return out;
}

std::shared_ptr<const SBSymbolic> sb_symbolic(const sparse::BlockCSR& a,
                                              const contact::Supernodes& sn, bool modified) {
  GEOFEM_CHECK(static_cast<int>(sn.node_to_super.size()) == a.n, "supernode map size mismatch");
  obs::ScopedSpan span("precond.symbolic.SB-BIC(0)");
  const int ns = sn.count();
  auto out = std::make_shared<SBSymbolic>();
  SBSymbolic& sym = *out;
  sym.n = a.n;
  sym.modified = modified;
  sym.dims.resize(static_cast<std::size_t>(ns));
  for (int s = 0; s < ns; ++s)
    sym.dims[static_cast<std::size_t>(s)] = kB * static_cast<int>(sn.members[static_cast<std::size_t>(s)].size());

  // position of each node inside its supernode
  std::vector<int> pos_in_super(static_cast<std::size_t>(a.n), 0);
  for (int s = 0; s < ns; ++s) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    for (std::size_t t = 0; t < mem.size(); ++t)
      pos_in_super[static_cast<std::size_t>(mem[static_cast<std::size_t>(t)])] = static_cast<int>(t);
  }

  sym.intra_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  sym.coup_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  sym.gather_ptr.assign(1, 0);
  for (int s = 0; s < ns; ++s) {
    const auto& mem = sn.members[static_cast<std::size_t>(s)];
    const int m = static_cast<int>(mem.size());
    const int dim = sym.dims[static_cast<std::size_t>(s)];
    // Map matrix entries to their dense positions; group coupling entries per
    // earlier neighbour K (ascending — the elimination order of corrections).
    std::map<int, std::vector<std::pair<int, int>>> earlier;  // K -> [(entry, row-pos)]
    for (int t = 0; t < m; ++t) {
      const int i = mem[static_cast<std::size_t>(t)];
      for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
        const int j = a.colind[e];
        const int sj = sn.node_to_super[static_cast<std::size_t>(j)];
        if (!modified && sj != s) continue;
        if (sj == s) {
          const int tj = pos_in_super[static_cast<std::size_t>(j)];
          sym.intra_entry.push_back(e);
          sym.intra_off.push_back(static_cast<std::int64_t>(kB * t) * dim + kB * tj);
        } else if (sj < s) {
          earlier[sj].emplace_back(e, t);
        }
      }
    }
    sym.intra_ptr[static_cast<std::size_t>(s) + 1] = static_cast<std::int64_t>(sym.intra_entry.size());
    for (const auto& [k, entries] : earlier) {
      const int dimk = sym.dims[static_cast<std::size_t>(k)];
      sym.coup_k.push_back(k);
      for (const auto& [e, t] : entries) {
        const int tj = pos_in_super[static_cast<std::size_t>(a.colind[e])];
        sym.gather_entry.push_back(e);
        sym.gather_off.push_back(static_cast<std::int64_t>(kB * t) * dimk + kB * tj);
      }
      sym.gather_ptr.push_back(static_cast<std::int64_t>(sym.gather_entry.size()));
    }
    sym.coup_ptr[static_cast<std::size_t>(s) + 1] = static_cast<int>(sym.coup_k.size());
  }
  return out;
}

namespace {

/// Dense work arrays of the selective-block factorization, one set per
/// thread, reused across its supernodes.
struct FactorScratch {
  std::vector<double> dwork, awork, twork, col;
};

/// dwork := A_SS of supernode s (dim x dim, zero outside the gathered blocks).
void gather_intra(const sparse::BlockCSR& a, const SBSymbolic& sym, int s, int dim,
                  std::vector<double>& dwork) {
  dwork.assign(static_cast<std::size_t>(dim) * dim, 0.0);
  for (std::int64_t q = sym.intra_ptr[static_cast<std::size_t>(s)];
       q < sym.intra_ptr[static_cast<std::size_t>(s) + 1]; ++q) {
    const double* blk = a.block(sym.intra_entry[static_cast<std::size_t>(q)]);
    double* dst = dwork.data() + sym.intra_off[static_cast<std::size_t>(q)];
    for (int r = 0; r < kB; ++r)
      for (int c = 0; c < kB; ++c)
        dst[static_cast<std::size_t>(r) * dim + static_cast<std::size_t>(c)] = blk[kB * r + c];
  }
}

/// Factor supernode s into lu[s]. Reads lu[k] of the earlier neighbours K
/// its corrections name (none unless sym.modified).
void factor_unit(const sparse::BlockCSR& a, const SBSymbolic& sym, int s,
                 std::vector<sparse::DenseLU>& lu, FactorScratch& w) {
  auto& [dwork, awork, twork, col] = w;
  const int dim = sym.dims[static_cast<std::size_t>(s)];
  gather_intra(a, sym, s, dim, dwork);

  // D~_S -= A_SK * D~_K^-1 * A_SK^T for each earlier neighbour K.
  for (int ci = sym.coup_ptr[static_cast<std::size_t>(s)];
       ci < sym.coup_ptr[static_cast<std::size_t>(s) + 1]; ++ci) {
    const int k = sym.coup_k[static_cast<std::size_t>(ci)];
    const int dimk = sym.dims[static_cast<std::size_t>(k)];
    // dense A_SK (dim x dimk)
    awork.assign(static_cast<std::size_t>(dim) * dimk, 0.0);
    for (std::int64_t q = sym.gather_ptr[static_cast<std::size_t>(ci)];
         q < sym.gather_ptr[static_cast<std::size_t>(ci) + 1]; ++q) {
      const double* blk = a.block(sym.gather_entry[static_cast<std::size_t>(q)]);
      double* dst = awork.data() + sym.gather_off[static_cast<std::size_t>(q)];
      for (int r = 0; r < kB; ++r)
        for (int c = 0; c < kB; ++c)
          dst[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(c)] = blk[kB * r + c];
    }
    // T = D~_K^-1 * A_SK^T, column by column of A_SK^T (i.e. row of A_SK)
    twork.assign(static_cast<std::size_t>(dimk) * dim, 0.0);
    col.resize(static_cast<std::size_t>(dimk));
    for (int r = 0; r < dim; ++r) {
      for (int c = 0; c < dimk; ++c)
        col[static_cast<std::size_t>(c)] = awork[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(c)];
      lu[static_cast<std::size_t>(k)].solve(col.data());
      for (int c = 0; c < dimk; ++c)
        twork[static_cast<std::size_t>(c) * dim + static_cast<std::size_t>(r)] = col[static_cast<std::size_t>(c)];
    }
    // D~_S -= A_SK * T
    for (int r = 0; r < dim; ++r)
      for (int c = 0; c < dim; ++c) {
        double acc = 0.0;
        for (int q = 0; q < dimk; ++q)
          acc += awork[static_cast<std::size_t>(r) * dimk + static_cast<std::size_t>(q)] *
                 twork[static_cast<std::size_t>(q) * dim + static_cast<std::size_t>(c)];
        dwork[static_cast<std::size_t>(r) * dim + static_cast<std::size_t>(c)] -= acc;
      }
  }

  // Over-subtraction / breakdown remedy: if the corrected block is no
  // longer SPD (which would make M indefinite and break CG) or fails to
  // factor, retry with the uncorrected diagonal block A_SS.
  if (!sparse::is_spd(dwork.data(), dim) ||
      !lu[static_cast<std::size_t>(s)].factor(dwork.data(), dim)) {
    gather_intra(a, sym, s, dim, dwork);
    if (!lu[static_cast<std::size_t>(s)].factor(dwork.data(), dim))
      throw Error(StatusCode::kFactorizationFailed, "SB-BIC(0): singular selective block");
  }
}

}  // namespace

std::vector<sparse::DenseLU> sb_factor_numeric(const sparse::BlockCSR& a, const SBSymbolic& sym) {
  GEOFEM_CHECK(sym.n == a.n, "SB-BIC(0): symbolic/matrix size mismatch");
  obs::ScopedSpan span("precond.numeric.SB-BIC(0)");
  const int ns = static_cast<int>(sym.dims.size());
  std::vector<sparse::DenseLU> lu(static_cast<std::size_t>(ns));

  // Supernodes in ascending id order with BIC(0)-style diagonal corrections
  // restricted to the original inter-supernode pattern; the scatter and
  // correction orders follow the schedule. Without corrections every
  // supernode reads only its own blocks, so the supernodes run on the
  // caller's team, each with the serial arithmetic, and a singular one
  // raises the serial loop's error: the lowest singular supernode's. The
  // corrections read earlier factors, so the modified form stays serial.
  par::parallel_for_with<FactorScratch>(ns, sym.modified ? 1 : par::threads(), 32,
                                        [&](FactorScratch& w, std::ptrdiff_t s) {
                                          factor_unit(a, sym, static_cast<int>(s), lu, w);
                                        });
  return lu;
}

std::vector<sparse::DenseLU> sb_factor_diagonals(const sparse::BlockCSR& a,
                                                 const contact::Supernodes& sn, bool modified) {
  return sb_factor_numeric(a, *sb_symbolic(a, sn, modified));
}

SBBIC0::SBBIC0(const sparse::BlockCSR& a, const contact::Supernodes& sn, bool modified,
               Precision precision)
    : SBBIC0(a, sn, sbbic0_symbolic(a, sn, modified), precision) {}

SBBIC0::SBBIC0(const sparse::BlockCSR& a, const contact::Supernodes& sn,
               std::shared_ptr<const SBBIC0Symbolic> sym, Precision precision)
    : a_(a), sym_(std::move(sym)), precision_(precision) {
  GEOFEM_CHECK(sym_ && sym_->sb->n == a.n &&
                   sym_->sb->dims.size() == static_cast<std::size_t>(sn.count()),
               "SBBIC0: symbolic/matrix/supernode mismatch");
  obs::ScopedSpan span("precond.factor.SB-BIC(0)");
  lu_ = sb_factor_numeric(a, *sym_->sb);
  store_factors();
}

void SBBIC0::store_factors() {
  const std::size_t ns = lu_.size();
  lu_solve_flops_ = 0.0;
  for (const auto& lu : lu_) lu_solve_flops_ += lu.solve_flops();
  // Singleton factors move into packed records at the stored precision and
  // their DenseLU objects are released; only multi-node supernodes keep a
  // generic solver. An fp32 build that cannot represent a factor is a
  // breakdown, not a silent fallback.
  const bool single = precision_ == Precision::kSingle;
  auto overflow = [] {
    return Error(StatusCode::kFactorizationFailed,
                 "fp32 narrowing overflow in selective-block factors");
  };
  if (single)
    lu3f_.assign(ns * simd::kLu3Coefs, 0.0f);
  else
    lu3_.assign(ns * simd::kLu3Coefs, 0.0);
  for (std::size_t s = 0; s < ns; ++s) {
    if (sym_->sb->dims[s] != kB) continue;
    if (single) {
      const double* f = lu_[s].factor();
      for (int m = 0; m < kBB; ++m)
        if (std::isfinite(f[m]) && !std::isfinite(static_cast<float>(f[m]))) throw overflow();
      simd::pack_lu3(lu_[s], lu3f_.data() + s * simd::kLu3Coefs);
    } else {
      simd::pack_lu3(lu_[s], lu3_.data() + s * simd::kLu3Coefs);
    }
    lu_[s] = sparse::DenseLU{};
  }
  if (!single) return;
  // Narrow the multi-node factors and the matrix value mirror the sweeps
  // stream; the fp64 factors are dropped.
  lu32_.resize(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    if (sym_->sb->dims[s] == kB) continue;
    lu32_[s] = sparse::DenseSolveT<float>(lu_[s]);
    if (lu32_[s].overflowed()) throw overflow();
  }
  narrow_or_throw(std::span<const double>(a_.val.data(), a_.val.size()), aval32_);
  lu_.clear();
  lu_.shrink_to_fit();
}

namespace {

/// Staging for one selective block's rows during a sweep: on the stack up
/// to kStackDoubles, on the heap beyond (only supernodes of hundreds of
/// DOF at wide batches). Nothing outlives the supernode it serves, so the
/// sweeps keep no per-thread state.
class UnitScratch {
 public:
  explicit UnitScratch(std::size_t n) : p_(n <= kStackDoubles ? buf_ : grow(n)) {}
  UnitScratch(const UnitScratch&) = delete;  // p_ may point into buf_
  UnitScratch& operator=(const UnitScratch&) = delete;
  [[nodiscard]] double* data() { return p_; }

 private:
  static constexpr std::size_t kStackDoubles = 1024;
  double* grow(std::size_t n) {
    heap_.resize(n);
    return heap_.data();
  }
  double buf_[kStackDoubles];
  std::vector<double> heap_;
  double* p_;
};

/// Dense solve of one selective block: the packed 3x3 replay for
/// singletons, the generic n x n solver otherwise.
template <class T, class Lu>
inline void solve_unit(const SBSymbolic& sb, const Lu& lu, const T* lu3, int s, double* x) {
  if (sb.dims[static_cast<std::size_t>(s)] == kB)
    simd::solve_lu3_unit(lu3 + static_cast<std::size_t>(s) * simd::kLu3Coefs, x);
  else
    lu.solve(x);
}

}  // namespace

template <class Acc, class T, class LuVec>
void SBBIC0::apply_impl(const T* aval, const LuVec& lus, const T* lu3, const double* r,
                        double* z, int team) const {
  const SBBIC0Symbolic& sym = *sym_;
  const int* rows = sym.row_node.data();
  // forward: z_S = D~_S^-1 (r_S - sum_{K<S} A_SK z_K). Supernodes of one
  // dependency level are independent; per-supernode arithmetic is the serial
  // sweep's (for the accumulator in use), so the result is bit-identical for
  // any team size. Each member row streams only its plan-held lower list.
  par::for_levels(sym.fwd, team, [&](int s) {
    const int q0 = sym.row_ptr[static_cast<std::size_t>(s)];
    const int q1 = sym.row_ptr[static_cast<std::size_t>(s) + 1];
    UnitScratch acc(static_cast<std::size_t>(kB) * static_cast<std::size_t>(q1 - q0));
    for (int q = q0; q < q1; ++q) {
      Acc ai;
      ai.init(r + static_cast<std::size_t>(rows[q]) * kB);
      for (int p = sym.lower_ptr[static_cast<std::size_t>(q)];
           p < sym.lower_ptr[static_cast<std::size_t>(q) + 1]; ++p) {
        const auto& c = sym.lower[static_cast<std::size_t>(p)];
        ai.msub(aval + static_cast<std::size_t>(c.entry) * kBB,
                z + static_cast<std::size_t>(c.col) * kB);
      }
      ai.reduce(acc.data() + static_cast<std::size_t>(q - q0) * kB);
    }
    solve_unit(*sym.sb, lus[static_cast<std::size_t>(s)], lu3, s, acc.data());
    for (int q = q0; q < q1; ++q) {
      double* zi = z + static_cast<std::size_t>(rows[q]) * kB;
      const double* at = acc.data() + static_cast<std::size_t>(q - q0) * kB;
      zi[0] = at[0];
      zi[1] = at[1];
      zi[2] = at[2];
    }
  });
  // backward: z_S -= D~_S^-1 sum_{K>S} A_SK z_K
  par::for_levels(sym.bwd, team, [&](int s) {
    const int q0 = sym.row_ptr[static_cast<std::size_t>(s)];
    const int q1 = sym.row_ptr[static_cast<std::size_t>(s) + 1];
    UnitScratch acc(static_cast<std::size_t>(kB) * static_cast<std::size_t>(q1 - q0));
    for (int q = q0; q < q1; ++q) {
      Acc ai;
      ai.init_zero();
      for (int p = sym.upper_ptr[static_cast<std::size_t>(q)];
           p < sym.upper_ptr[static_cast<std::size_t>(q) + 1]; ++p) {
        const auto& c = sym.upper[static_cast<std::size_t>(p)];
        ai.madd(aval + static_cast<std::size_t>(c.entry) * kBB,
                z + static_cast<std::size_t>(c.col) * kB);
      }
      ai.reduce(acc.data() + static_cast<std::size_t>(q - q0) * kB);
    }
    solve_unit(*sym.sb, lus[static_cast<std::size_t>(s)], lu3, s, acc.data());
    for (int q = q0; q < q1; ++q) {
      double* zi = z + static_cast<std::size_t>(rows[q]) * kB;
      const double* at = acc.data() + static_cast<std::size_t>(q - q0) * kB;
      zi[0] -= at[0];
      zi[1] -= at[1];
      zi[2] -= at[2];
    }
  });
}

void SBBIC0::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                   util::LoopStats* loops) const {
  const auto& a = a_;
  GEOFEM_CHECK(r.size() == a.ndof() && z.size() == a.ndof(), "SB-BIC0 apply size mismatch");

  const int team = par::threads();
  if (precision_ == Precision::kSingle) {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      apply_impl<simd::AvxAcc3T<float>>(aval32_.data(), lu32_, lu3f_.data(), r.data(), z.data(),
                                        team);
    } else
#endif
    {
      apply_impl<simd::ScalarAcc3T<float>>(aval32_.data(), lu32_, lu3f_.data(), r.data(),
                                           z.data(), team);
    }
  } else {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      apply_impl<simd::AvxAcc3>(a.val.data(), lu_, lu3_.data(), r.data(), z.data(), team);
    } else
#endif
    {
      apply_impl<simd::ScalarAcc3>(a.val.data(), lu_, lu3_.data(), r.data(), z.data(), team);
    }
  }
  // Stats are pattern-derived and plan-held (serial sweep order).
  if (loops) loops->merge(sym_->apply_loops);
  if (flops) {
    const auto coupled = static_cast<std::uint64_t>(sym_->lower.size() + sym_->upper.size());
    flops->precond += 2ULL * kBB * coupled;
    flops->precond += static_cast<std::uint64_t>(2.0 * lu_solve_flops_);
  }
}

template <int KC, bool UseAvx, class T, class LuVec>
void SBBIC0::apply_multi_impl(const T* aval, const LuVec& lus, const T* lu3, const double* r,
                              double* z, int k_rt, int team) const {
  // With KC > 0 the column count is a compile-time constant, so the inlined
  // b3k kernels and the singleton solves unroll over exactly k columns; the
  // per-column operation sequence is the runtime-k one.
  const int k = KC > 0 ? KC : k_rt;
  const SBBIC0Symbolic& sym = *sym_;
  const int* rows = sym.row_node.data();
  const std::size_t rk = static_cast<std::size_t>(kB) * static_cast<std::size_t>(k);
  // Staging per supernode: dim rows of k interleaved columns
  // ([dof-in-super][col]), then — for the generic solve of a multi-node
  // supernode — one contiguous column copy.
  auto solve = [&](int s, double* acc) {
    const int dim = sym.sb->dims[static_cast<std::size_t>(s)];
    if (dim == kB) {
      simd::solve_lu3_unit_cols(lu3 + static_cast<std::size_t>(s) * simd::kLu3Coefs, acc, k);
      return;
    }
    double* col = acc + static_cast<std::size_t>(dim) * static_cast<std::size_t>(k);
    for (int c = 0; c < k; ++c) {
      for (int d = 0; d < dim; ++d)
        col[d] = acc[static_cast<std::size_t>(d) * static_cast<std::size_t>(k) +
                     static_cast<std::size_t>(c)];
      lus[static_cast<std::size_t>(s)].solve(col);
      for (int d = 0; d < dim; ++d)
        acc[static_cast<std::size_t>(d) * static_cast<std::size_t>(k) +
            static_cast<std::size_t>(c)] = col[d];
    }
  };
  auto scratch_size = [&](int s) {
    const auto dim = static_cast<std::size_t>(sym.sb->dims[static_cast<std::size_t>(s)]);
    return dim * (static_cast<std::size_t>(k) + 1);
  };
  par::for_levels(sym.fwd, team, [&](int s) {
    const int q0 = sym.row_ptr[static_cast<std::size_t>(s)];
    const int q1 = sym.row_ptr[static_cast<std::size_t>(s) + 1];
    UnitScratch acc(scratch_size(s));
    for (int q = q0; q < q1; ++q) {
      double* at = acc.data() + static_cast<std::size_t>(q - q0) * rk;
      const double* ri = r + static_cast<std::size_t>(rows[q]) * rk;
      for (std::size_t c = 0; c < rk; ++c) at[c] = ri[c];
      for (int p = sym.lower_ptr[static_cast<std::size_t>(q)];
           p < sym.lower_ptr[static_cast<std::size_t>(q) + 1]; ++p) {
        const auto& cp = sym.lower[static_cast<std::size_t>(p)];
        simd::b3k_msub<T, UseAvx>(aval + static_cast<std::size_t>(cp.entry) * kBB,
                                  z + static_cast<std::size_t>(cp.col) * rk, at, k);
      }
    }
    solve(s, acc.data());
    for (int q = q0; q < q1; ++q) {
      double* zi = z + static_cast<std::size_t>(rows[q]) * rk;
      const double* at = acc.data() + static_cast<std::size_t>(q - q0) * rk;
      for (std::size_t c = 0; c < rk; ++c) zi[c] = at[c];
    }
  });
  par::for_levels(sym.bwd, team, [&](int s) {
    const int q0 = sym.row_ptr[static_cast<std::size_t>(s)];
    const int q1 = sym.row_ptr[static_cast<std::size_t>(s) + 1];
    UnitScratch acc(scratch_size(s));
    for (int q = q0; q < q1; ++q) {
      double* at = acc.data() + static_cast<std::size_t>(q - q0) * rk;
      for (std::size_t c = 0; c < rk; ++c) at[c] = 0.0;
      for (int p = sym.upper_ptr[static_cast<std::size_t>(q)];
           p < sym.upper_ptr[static_cast<std::size_t>(q) + 1]; ++p) {
        const auto& cp = sym.upper[static_cast<std::size_t>(p)];
        simd::b3k_madd<T, UseAvx>(aval + static_cast<std::size_t>(cp.entry) * kBB,
                                  z + static_cast<std::size_t>(cp.col) * rk, at, k);
      }
    }
    solve(s, acc.data());
    for (int q = q0; q < q1; ++q) {
      double* zi = z + static_cast<std::size_t>(rows[q]) * rk;
      const double* at = acc.data() + static_cast<std::size_t>(q - q0) * rk;
      for (std::size_t c = 0; c < rk; ++c) zi[c] -= at[c];
    }
  });
}

void SBBIC0::apply_multi(std::span<const double> r, std::span<double> z, int k,
                         util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "SB-BIC0 apply_multi: bad column count");
  GEOFEM_CHECK(r.size() == a_.ndof() * static_cast<std::size_t>(k) && r.size() == z.size(),
               "SB-BIC0 apply_multi size mismatch");
  const int team = par::threads();
  auto run = [&](const auto* aval, const auto& lus, const auto* lu3) {
#if GEOFEM_SIMD_HAS_AVX2
    if (simd::active() == simd::Isa::kAvx2) {
      apply_multi_impl<0, true>(aval, lus, lu3, r.data(), z.data(), k, team);
      return;
    }
#endif
    simd::with_fixed_width(k, [&](auto kc) {
      apply_multi_impl<decltype(kc)::value, false>(aval, lus, lu3, r.data(), z.data(), k, team);
    });
  };
  if (precision_ == Precision::kSingle)
    run(aval32_.data(), lu32_, lu3f_.data());
  else
    run(a_.val.data(), lu_, lu3_.data());
  // One schedule walk: loop stats match the single apply; FLOPs scale by k.
  if (loops) loops->merge(sym_->apply_loops);
  if (flops) {
    const auto coupled = static_cast<std::uint64_t>(sym_->lower.size() + sym_->upper.size());
    flops->precond += 2ULL * kBB * coupled * static_cast<std::uint64_t>(k);
    flops->precond +=
        static_cast<std::uint64_t>(2.0 * lu_solve_flops_) * static_cast<std::uint64_t>(k);
  }
}

std::size_t SBBIC0::memory_bytes() const {
  std::size_t bytes = aval32_.size() * sizeof(float) + lu3_.size() * sizeof(double) +
                      lu3f_.size() * sizeof(float);
  for (const auto& lu : lu_) bytes += lu.memory_bytes();
  for (const auto& lu : lu32_) bytes += lu.memory_bytes();
  return bytes;
}

}  // namespace geofem::precond
