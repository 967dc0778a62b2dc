#include "precond/djds_bic.hpp"

#include <algorithm>
#include <type_traits>

#include "obs/span.hpp"
#include "par/par.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "util/check.hpp"

namespace geofem::precond {

using sparse::kB;
using sparse::kBB;

std::size_t DJDSSymbolic::memory_bytes() const {
  std::size_t bytes = sb ? sb->memory_bytes() : 0;
  for (const auto& c : chunks) bytes += (c.runs.size() + c.rest.size()) * sizeof(Unit);
  return bytes;
}

std::shared_ptr<const DJDSSymbolic> djds_symbolic(const sparse::BlockCSR& a,
                                                  const reorder::DJDSMatrix& dj) {
  GEOFEM_CHECK(a.n == dj.n(), "matrix/DJDS size mismatch");
  obs::ScopedSpan span("precond.symbolic.DJDS-BIC");
  auto out = std::make_shared<DJDSSymbolic>();
  DJDSSymbolic& sym = *out;

  // Ordering units in ascending new-row order (supernode ranges or single
  // rows), so unit id == elimination order. The supernode map handed to the
  // selective-block schedule is over ORIGINAL nodes: unit u's members are
  // its new rows mapped back through iperm, in new-row order.
  const int nchunks = dj.num_colors() * dj.npe();
  sym.chunks.resize(static_cast<std::size_t>(nchunks));
  contact::Supernodes units;
  units.node_to_super.assign(static_cast<std::size_t>(dj.n()), -1);
  for (int ch = 0; ch < nchunks; ++ch) {
    auto& chunk = sym.chunks[static_cast<std::size_t>(ch)];
    const int b = dj.chunk_begin()[static_cast<std::size_t>(ch)];
    const int e = dj.chunk_begin()[static_cast<std::size_t>(ch) + 1];
    int prev_size = 0, batch = 0;  // same-size solve batch being counted
    for (int i = b; i < e;) {
      const int r = dj.range_of_row(i);
      const int size = r >= 0 ? dj.super_ranges()[static_cast<std::size_t>(r)].size : 1;
      const int id = units.count();
      std::vector<int> mem(static_cast<std::size_t>(size));
      for (int t = 0; t < size; ++t) {
        const int old = dj.iperm()[static_cast<std::size_t>(i + t)];
        mem[static_cast<std::size_t>(t)] = old;
        units.node_to_super[static_cast<std::size_t>(old)] = id;
      }
      units.members.push_back(std::move(mem));
      if (size > 1) {
        sym.has_blocks = true;
        chunk.rest.push_back({i, size, id});
      } else if (!chunk.runs.empty() &&
                 chunk.runs.back().start + chunk.runs.back().size == i) {
        ++chunk.runs.back().size;
      } else {
        chunk.runs.push_back({i, 1, id});
      }
      // Structural statistics: same-size unit solve batches (Fig 22
      // vectorization across equal-size dense blocks), forward + backward.
      if (size != prev_size && batch > 0) {
        sym.batch_loops.record(batch, 2);
        batch = 0;
      }
      prev_size = size;
      ++batch;
      const std::uint64_t dim = static_cast<std::uint64_t>(kB * size);
      sym.apply_flops += 2 * 2 * dim * dim;  // DenseLU::solve_flops, twice
      sym.block_solve_flops += 2.0 * 2.0 * static_cast<double>(dim * dim);
      i += size;
    }
    if (batch > 0) sym.batch_loops.record(batch, 2);
  }
  sym.sb = sb_symbolic(a, units);

  // Every jagged diagonal loop of one apply (forward + backward).
  for (int ch = 0; ch < nchunks; ++ch) {
    for (const auto* part : {&dj.lower(ch), &dj.upper(ch)}) {
      for (int j = 0; j < part->num_jd(); ++j) {
        const int len = part->jd_ptr[static_cast<std::size_t>(j) + 1] -
                        part->jd_ptr[static_cast<std::size_t>(j)];
        if (len > 0) sym.jagged_loops.record(len);
        sym.apply_flops += 2ULL * kBB * static_cast<std::uint64_t>(len);
      }
    }
  }
  sym.struct_loops.merge(sym.jagged_loops);
  sym.struct_loops.merge(sym.batch_loops);
  return out;
}

namespace {

/// Pack the singleton runs of every chunk kLanes units a group, narrowing
/// the 3x3 factors to the pack's precision; one chunk per iteration on the
/// caller's team (each chunk's pack is its own).
template <class T>
std::vector<simd::PackedLU3T<T>> pack_singletons(const DJDSSymbolic& sym,
                                                 const std::vector<sparse::DenseLU>& lu) {
  constexpr int kL = simd::PackedLU3T<T>::kLanes;
  std::vector<simd::PackedLU3T<T>> packs(sym.chunks.size());
  par::parallel_for(static_cast<std::ptrdiff_t>(packs.size()), par::threads(), 1,
                    [&](std::ptrdiff_t ch) {
    for (const auto& run : sym.chunks[static_cast<std::size_t>(ch)].runs) {
      for (int g = 0; g < run.size; g += kL) {
        const int cnt = std::min(kL, run.size - g);
        const sparse::DenseLU* lus[kL] = {};
        for (int l = 0; l < cnt; ++l) lus[l] = &lu[static_cast<std::size_t>(run.id + g + l)];
        simd::pack_lu3_group(packs[static_cast<std::size_t>(ch)], lus, cnt, run.start + g);
      }
    }
  });
  return packs;
}

}  // namespace

DJDSBIC::DJDSBIC(const sparse::BlockCSR& a, const reorder::DJDSMatrix& dj, Precision precision)
    : DJDSBIC(a, dj, djds_symbolic(a, dj), precision) {}

DJDSBIC::DJDSBIC(const sparse::BlockCSR& a, const reorder::DJDSMatrix& dj,
                 std::shared_ptr<const DJDSSymbolic> sym, Precision precision)
    : dj_(dj), sym_(std::move(sym)), precision_(precision) {
  GEOFEM_CHECK(a.n == dj.n() && sym_ && sym_->sb && sym_->sb->n == a.n &&
                   static_cast<int>(sym_->chunks.size()) == dj.num_colors() * dj.npe(),
               "DJDSBIC: matrix/DJDS/symbolic mismatch");
  obs::ScopedSpan span("precond.factor.DJDS-BIC");
  // Factor D~ in the DJDS elimination order straight from the original
  // matrix (the schedule already maps unit members through iperm).
  lu_ = sb_factor_numeric(a, *sym_->sb);
  const std::size_t ndof = static_cast<std::size_t>(dj.n()) * kB;

  if (precision_ == Precision::kDouble) {
    chunk_lu3_ = pack_singletons<double>(*sym_, lu_);
    w_.resize(ndof);
    return;
  }
  // fp32 storage: narrow the unit LU factors and the jagged values once at
  // set-up (factorization itself ran in fp64 above). Overflow while
  // narrowing is this precision's "breakdown" — surfaced exactly like a
  // failed pivot so the precision-fallback layer re-sets-up at fp64.
  lu32_.reserve(lu_.size());
  for (const auto& lu : lu_) {
    lu32_.emplace_back(lu);
    if (lu32_.back().overflowed())
      throw Error(StatusCode::kFactorizationFailed,
                  "fp32 narrowing overflow in selective-block factors");
  }
  f32_.resize(sym_->chunks.size());
  for (std::size_t ch = 0; ch < f32_.size(); ++ch) {
    auto& f = f32_[ch];
    const auto& lo = dj.lower(static_cast<int>(ch));
    const auto& up = dj.upper(static_cast<int>(ch));
    narrow_or_throw(lo.val, f.lower_val);
    narrow_or_throw(up.val, f.upper_val);
    simd::pack_jagged(lo.jd_ptr, lo.item, f.lower_val.data(), f.lower_packed);
    simd::pack_jagged(up.jd_ptr, up.item, f.upper_val.data(), f.upper_packed);
  }
  chunk_lu3f_ = pack_singletons<float>(*sym_, lu_);
  zf_.resize(ndof);
  wf_.resize(ndof);
}

/// Both substitution sweeps inside ONE parallel region: colors run in order,
/// the PE chunks of a color are an `omp for` whose implicit barrier orders
/// the colors. Each chunk's arithmetic is fixed (one thread runs all of it),
/// so the result is bit-identical for any team size. T = float stages the
/// whole substitution in fp32 (values, vectors, 8-lane kernels).
template <class T>
void DJDSBIC::substitute(const double* r, T* z, T* w) const {
  constexpr bool f32 = std::is_same_v<T, float>;
  const auto& packs = [&]() -> const auto& {
    if constexpr (f32) return chunk_lu3f_; else return chunk_lu3_;
  }();
  const auto& lus = [&]() -> const auto& {
    if constexpr (f32) return lu32_; else return lu_;
  }();
  // Values the sweeps stream for chunk ch: lower (forward) or upper part.
  auto values = [&](int ch, bool lower) -> const T* {
    if constexpr (f32) {
      const auto& f = f32_[static_cast<std::size_t>(ch)];
      return lower ? f.lower_val.data() : f.upper_val.data();
    } else {
      return (lower ? dj_.lower(ch) : dj_.upper(ch)).val.data();
    }
  };
  const int npe = dj_.npe();
  const int ncolors = dj_.num_colors();
  const int team = par::threads();
  // Kernel tier read once, outside the parallel region.
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  (void)avx2;

  // forward: z_chunk = r_chunk - L_chunk * z(earlier colors); unit solves in
  // place. The jagged gathers only read rows of earlier colors (colors are
  // independent sets), never the chunk being written, so the lower sweep can
  // run whole diagonals at a time.
  auto forward = [&](int ch) {
    const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
    const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
    for (std::size_t i = static_cast<std::size_t>(b) * kB; i < static_cast<std::size_t>(e) * kB;
         ++i)
      z[i] = static_cast<T>(r[i]);
    const auto& part = dj_.lower(ch);
    const T* val = values(ch, true);
    T* zb = z + static_cast<std::size_t>(b) * kB;
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      if constexpr (f32)
        simd::sweep_avx2<simd::Mode::kSub>(f32_[static_cast<std::size_t>(ch)].lower_packed, z, zb);
      else
        simd::sweep_avx2<simd::Mode::kSub>(part.packed, z, zb);
      simd::solve_lu3_avx2(packs[static_cast<std::size_t>(ch)], z);
    } else
#endif
    {
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv_sub(
              val + static_cast<std::size_t>(t) * kBB,
              z + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              zb + static_cast<std::size_t>(t - s) * kB);
        }
      }
      simd::solve_lu3(packs[static_cast<std::size_t>(ch)], z);
    }
    for (const auto& u : sym_->chunks[static_cast<std::size_t>(ch)].rest)
      lus[static_cast<std::size_t>(u.id)].solve(z + static_cast<std::size_t>(u.start) * kB);
  };

  // backward: z_chunk -= D~^-1 (U_chunk * z(later colors)), staged in w.
  auto backward = [&](int ch) {
    const int b = dj_.chunk_begin()[static_cast<std::size_t>(ch)];
    const int e = dj_.chunk_begin()[static_cast<std::size_t>(ch) + 1];
    for (std::size_t i = static_cast<std::size_t>(b) * kB; i < static_cast<std::size_t>(e) * kB;
         ++i)
      w[i] = T(0);
    const auto& part = dj_.upper(ch);
    const T* val = values(ch, false);
    T* wb = w + static_cast<std::size_t>(b) * kB;
#if GEOFEM_SIMD_HAS_AVX2
    if (avx2) {
      if constexpr (f32)
        simd::sweep_avx2<simd::Mode::kAdd>(f32_[static_cast<std::size_t>(ch)].upper_packed, z, wb);
      else
        simd::sweep_avx2<simd::Mode::kAdd>(part.packed, z, wb);
      // Solves out of w and subtracts straight into z; w keeps the raw U*z
      // values (nothing reads them back).
      simd::solve_lu3_sub_avx2(packs[static_cast<std::size_t>(ch)], w, z);
    } else
#endif
    {
      for (int j = 0; j < part.num_jd(); ++j) {
        const int s = part.jd_ptr[static_cast<std::size_t>(j)];
        const int t1 = part.jd_ptr[static_cast<std::size_t>(j) + 1];
        GEOFEM_PRAGMA_SIMD
        for (int t = s; t < t1; ++t) {
          sparse::b3_gemv(
              val + static_cast<std::size_t>(t) * kBB,
              z + static_cast<std::size_t>(part.item[static_cast<std::size_t>(t)]) * kB,
              wb + static_cast<std::size_t>(t - s) * kB);
        }
      }
      simd::solve_lu3_sub(packs[static_cast<std::size_t>(ch)], w, z);
    }
    for (const auto& u : sym_->chunks[static_cast<std::size_t>(ch)].rest) {
      T* wu = w + static_cast<std::size_t>(u.start) * kB;
      lus[static_cast<std::size_t>(u.id)].solve(wu);
      T* zu = z + static_cast<std::size_t>(u.start) * kB;
      for (int t = 0; t < u.size * kB; ++t) zu[t] -= wu[t];
    }
  };

#pragma omp parallel num_threads(team) if (team > 1)
  {
    for (int c = 0; c < ncolors; ++c) {
#pragma omp for schedule(static)
      for (int p = 0; p < npe; ++p) forward(dj_.chunk_index(c, p));
    }
    for (int c = ncolors - 1; c >= 0; --c) {
#pragma omp for schedule(static)
      for (int p = 0; p < npe; ++p) backward(dj_.chunk_index(c, p));
    }
  }
}

void DJDSBIC::apply(std::span<const double> r, std::span<double> z, util::FlopCounter* flops,
                    util::LoopStats* loops) const {
  const std::size_t ndof = static_cast<std::size_t>(dj_.n()) * kB;
  GEOFEM_CHECK(r.size() == ndof && z.size() == ndof, "DJDSBIC apply size mismatch");
  if (precision_ == Precision::kSingle) {
    // fp32 staging: r is narrowed chunk by chunk on the way in and the
    // finished z widened once at the end — the only places the precisions
    // meet.
    substitute<float>(r.data(), zf_.data(), wf_.data());
    for (std::size_t i = 0; i < ndof; ++i) z[i] = static_cast<double>(zf_[i]);
  } else {
    substitute<double>(r.data(), z.data(), w_.data());
  }
  if (flops) flops->precond += sym_->apply_flops;
  if (loops) loops->merge(sym_->struct_loops);
}

std::size_t DJDSBIC::memory_bytes() const {
  // What the sweeps stream: the singleton packs plus the dense factors of
  // the multi-node units only (singleton factors are read from the packs).
  // At kSingle that is the fp32 storage alone — the halved footprint IS the
  // optimization; the fp64 factors are retained only as the narrowing source.
  std::size_t bytes = 0;
  auto add_units = [&](const auto& lus) {
    for (const auto& c : sym_->chunks) {
      bytes += (c.runs.size() + c.rest.size()) * sizeof(DJDSSymbolic::Unit);
      for (const auto& u : c.rest) bytes += lus[static_cast<std::size_t>(u.id)].memory_bytes();
    }
  };
  if (precision_ == Precision::kSingle) {
    add_units(lu32_);
    for (const auto& f : f32_) {
      bytes += (f.lower_val.size() + f.upper_val.size()) * sizeof(float);
      bytes += (f.lower_packed.val.size() + f.upper_packed.val.size()) * sizeof(float);
      bytes += (f.lower_packed.item3.size() + f.upper_packed.item3.size()) * sizeof(int32_t);
    }
    for (const auto& p : chunk_lu3f_) bytes += p.memory_bytes();
    return bytes;
  }
  add_units(lu_);
  for (const auto& p : chunk_lu3_) bytes += p.memory_bytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// OwnedDJDSBIC
// ---------------------------------------------------------------------------

namespace {

/// MC coloring of `a`, at supernode granularity when any supernode has more
/// than one member.
reorder::Coloring color_for(const sparse::BlockCSR& a, const contact::Supernodes& sn,
                            int colors) {
  const sparse::Graph g = sparse::graph_of(a);
  bool has_blocks = false;
  for (const auto& m : sn.members) has_blocks |= m.size() > 1;
  if (!has_blocks) return reorder::multicolor(g, colors);
  const sparse::Graph q = reorder::quotient_graph(g, sn.node_to_super, sn.count());
  return reorder::lift_coloring(reorder::multicolor(q, colors), sn.node_to_super, a.n);
}

}  // namespace

OwnedDJDSBIC::OwnedDJDSBIC(const sparse::BlockCSR& a, contact::Supernodes sn, int colors,
                           int npe, bool sort_supernodes, Precision precision)
    : a_(a), sn_(std::move(sn)) {
  obs::ScopedSpan span("precond.setup.DJDS-reorder");
  const reorder::Coloring coloring = color_for(a_, sn_, colors);
  reorder::DJDSOptions opt;
  opt.npe = npe;
  opt.sort_supernodes_by_size = sort_supernodes;
  bool has_blocks = false;
  for (const auto& m : sn_.members) has_blocks |= m.size() > 1;
  dj_ = std::make_unique<reorder::DJDSMatrix>(a_, coloring, has_blocks ? &sn_ : nullptr, opt);
  inner_ = std::make_unique<DJDSBIC>(a_, *dj_, precision);
  pr_.resize(a_.ndof());
  pz_.resize(a_.ndof());
}

void OwnedDJDSBIC::apply(std::span<const double> r, std::span<double> z,
                         util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(r.size() == a_.ndof() && z.size() == a_.ndof(),
               "OwnedDJDSBIC apply size mismatch");
  const auto& perm = dj_->perm();
  for (int i = 0; i < a_.n; ++i)
    for (int c = 0; c < kB; ++c)
      pr_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
          static_cast<std::size_t>(c)] =
          r[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)];
  inner_->apply(pr_, pz_, flops, loops);
  for (int i = 0; i < a_.n; ++i)
    for (int c = 0; c < kB; ++c)
      z[static_cast<std::size_t>(i) * kB + static_cast<std::size_t>(c)] =
          pz_[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]) * kB +
              static_cast<std::size_t>(c)];
}

std::size_t OwnedDJDSBIC::memory_bytes() const {
  return inner_->memory_bytes() + dj_->memory_bytes();
}

}  // namespace geofem::precond
