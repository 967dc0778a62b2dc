#include "reorder/djds.hpp"

#include <algorithm>
#include <numeric>

#include "par/par.hpp"
#include "simd/multirhs.hpp"
#include "util/check.hpp"

namespace geofem::reorder {

namespace {

/// One ordering unit: a supernode (contact group) or a single node.
struct Unit {
  int id;         ///< supernode id, or node id when no supernodes
  int size;       ///< member count
  int length;     ///< total off-diagonal blocks over member rows (load proxy)
};

}  // namespace

DJDSMatrix::DJDSMatrix(const sparse::BlockCSR& a, const Coloring& coloring,
                       const contact::Supernodes* supernodes, const DJDSOptions& opt)
    : n_(a.n), ncolors_(coloring.num_colors), opt_(opt) {
  GEOFEM_CHECK(opt.npe >= 1, "npe must be >= 1");
  GEOFEM_CHECK(static_cast<int>(coloring.color_of.size()) == a.n, "coloring size mismatch");

  // ---- 1. Units and their colors -----------------------------------------
  std::vector<Unit> units;
  auto row_len = [&](int i) { return a.rowptr[i + 1] - a.rowptr[i] - 1; };
  if (supernodes) {
    GEOFEM_CHECK(static_cast<int>(supernodes->node_to_super.size()) == a.n,
                 "supernode map size mismatch");
    units.reserve(supernodes->members.size());
    for (int s = 0; s < supernodes->count(); ++s) {
      const auto& mem = supernodes->members[static_cast<std::size_t>(s)];
      int len = 0;
      const int c0 = coloring.color_of[static_cast<std::size_t>(mem[0])];
      for (int v : mem) {
        len += row_len(v);
        GEOFEM_CHECK(coloring.color_of[static_cast<std::size_t>(v)] == c0,
                     "supernode members must share a color");
      }
      units.push_back({s, static_cast<int>(mem.size()), len});
    }
  } else {
    units.reserve(static_cast<std::size_t>(a.n));
    for (int v = 0; v < a.n; ++v) units.push_back({v, 1, row_len(v)});
  }

  auto unit_color = [&](const Unit& u) {
    const int node = supernodes ? supernodes->members[static_cast<std::size_t>(u.id)][0] : u.id;
    return coloring.color_of[static_cast<std::size_t>(node)];
  };

  // ---- 2. Cyclic distribution over PEs within each color ------------------
  // Paper §4.4: sort units of a color by descending length, deal them to PEs
  // round-robin (load balance), then order each PE's hand. §4.7/Fig 22: with
  // supernodes, sort each hand by block size (descending) so that dense-LU
  // substitution can run without per-row size branches.
  std::vector<std::vector<std::vector<Unit>>> hands(
      static_cast<std::size_t>(ncolors_),
      std::vector<std::vector<Unit>>(static_cast<std::size_t>(opt_.npe)));
  {
    std::vector<std::vector<Unit>> by_color(static_cast<std::size_t>(ncolors_));
    for (const Unit& u : units) by_color[static_cast<std::size_t>(unit_color(u))].push_back(u);
    for (int c = 0; c < ncolors_; ++c) {
      auto& list = by_color[static_cast<std::size_t>(c)];
      std::stable_sort(list.begin(), list.end(),
                       [](const Unit& x, const Unit& y) { return x.length > y.length; });
      for (std::size_t t = 0; t < list.size(); ++t)
        hands[static_cast<std::size_t>(c)][t % static_cast<std::size_t>(opt_.npe)].push_back(
            list[t]);
      if (opt_.sort_supernodes_by_size && supernodes) {
        for (auto& hand : hands[static_cast<std::size_t>(c)])
          std::stable_sort(hand.begin(), hand.end(), [](const Unit& x, const Unit& y) {
            return x.size != y.size ? x.size > y.size : x.length > y.length;
          });
      }
    }
  }

  // ---- 3. Permutation and chunk layout ------------------------------------
  perm_.assign(static_cast<std::size_t>(n_), -1);
  iperm_.assign(static_cast<std::size_t>(n_), -1);
  chunk_begin_.assign(static_cast<std::size_t>(ncolors_) * opt_.npe + 1, 0);
  {
    int pos = 0;
    for (int c = 0; c < ncolors_; ++c) {
      for (int p = 0; p < opt_.npe; ++p) {
        chunk_begin_[static_cast<std::size_t>(chunk_index(c, p))] = pos;
        for (const Unit& u : hands[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)]) {
          if (u.size > 1) super_ranges_.push_back({pos, u.size});
          if (supernodes) {
            for (int v : supernodes->members[static_cast<std::size_t>(u.id)]) {
              perm_[static_cast<std::size_t>(v)] = pos;
              iperm_[static_cast<std::size_t>(pos)] = v;
              ++pos;
            }
          } else {
            perm_[static_cast<std::size_t>(u.id)] = pos;
            iperm_[static_cast<std::size_t>(pos)] = u.id;
            ++pos;
          }
        }
      }
    }
    chunk_begin_.back() = pos;
    GEOFEM_CHECK(pos == n_, "ordering did not cover all rows");
  }

  std::sort(super_ranges_.begin(), super_ranges_.end(),
            [](const SuperRange& x, const SuperRange& y) { return x.start < y.start; });
  range_of_row_.assign(static_cast<std::size_t>(n_), -1);
  for (std::size_t r = 0; r < super_ranges_.size(); ++r)
    for (int t = 0; t < super_ranges_[r].size; ++t)
      range_of_row_[static_cast<std::size_t>(super_ranges_[r].start + t)] = static_cast<int>(r);

  // ---- 4-5. Diagonal blocks in new order, supernode dense blocks ---------
  // Steps 4-6 run on the caller's team: each row, supernode range or chunk
  // is one iteration that writes only its own arrays, with the serial
  // arithmetic, so the layout is the same for every team size.
  const int team = par::threads();
  diag_.resize(static_cast<std::size_t>(n_) * sparse::kBB);
  super_dense_.resize(super_ranges_.size());
  gather_blocks(a, team);

  // ---- 6. Jagged diagonal parts per chunk ----------------------------------
  const int nchunks = ncolors_ * opt_.npe;
  lower_.resize(static_cast<std::size_t>(nchunks));
  upper_.resize(static_cast<std::size_t>(nchunks));

  // Staging for one chunk's rows, one set per thread reused across its
  // chunks: each row gets a slice as long as its CSR row; its lower-part
  // (new column, source entry) pairs fill the slice from the front (lo_at,
  // lo_len), its upper-part pairs from the back (up_at moves down as they
  // arrive, up_len).
  struct Staging {
    std::vector<int> lo_at, lo_len, up_at, up_len, plen;
    std::vector<std::pair<int, int>> stage;
  };
  par::parallel_for_with<Staging>(nchunks, team, 1, [&](Staging& st, std::ptrdiff_t ch) {
    auto& [lo_at, lo_len, up_at, up_len, plen, stage] = st;
    const int begin = chunk_begin_[static_cast<std::size_t>(ch)];
    const int count = chunk_begin_[static_cast<std::size_t>(ch) + 1] - begin;
    const auto ucount = static_cast<std::size_t>(count);
    lo_at.resize(ucount);
    up_at.resize(ucount);
    lo_len.assign(ucount, 0);
    up_len.assign(ucount, 0);
    int size = 0;
    for (std::size_t t = 0; t < ucount; ++t) {
      const int old = iperm_[static_cast<std::size_t>(begin) + t];
      lo_at[t] = size;
      size += a.rowptr[old + 1] - a.rowptr[old];
      up_at[t] = size;
    }
    stage.resize(static_cast<std::size_t>(size));
    // Split each row's entries into lower/upper by *new* index; skip
    // intra-supernode couplings (handled by the dense blocks above).
    for (std::size_t t = 0; t < ucount; ++t) {
      const int in = begin + static_cast<int>(t);
      const int old = iperm_[static_cast<std::size_t>(in)];
      for (int e = a.rowptr[old]; e < a.rowptr[old + 1]; ++e) {
        const int jn = perm_[static_cast<std::size_t>(a.colind[e])];
        if (jn == in) continue;
        if (range_of_row_[static_cast<std::size_t>(in)] != -1 &&
            range_of_row_[static_cast<std::size_t>(jn)] ==
                range_of_row_[static_cast<std::size_t>(in)])
          continue;
        if (jn < in) {
          stage[static_cast<std::size_t>(lo_at[t] + lo_len[t]++)] = {jn, e};
        } else {
          stage[static_cast<std::size_t>(--up_at[t])] = {jn, e};
          ++up_len[t];
        }
      }
      // Columns are distinct within a row, so the order is fully determined.
      const auto row = stage.begin();
      std::sort(row + lo_at[t], row + lo_at[t] + lo_len[t]);
      std::sort(row + up_at[t], row + up_at[t] + up_len[t]);
    }
    auto build = [&](const std::vector<int>& at, const std::vector<int>& len, Jagged& out) {
      // Padded (suffix-max) lengths keep the jagged diagonals monotone when
      // supernode contiguity prevents a perfect descending sort (Fig 21).
      plen.assign(ucount, 0);
      for (int t = count - 1; t >= 0; --t)
        plen[static_cast<std::size_t>(t)] =
            std::max(len[static_cast<std::size_t>(t)],
                     t + 1 < count ? plen[static_cast<std::size_t>(t) + 1] : 0);
      const int njd = count > 0 ? plen[0] : 0;
      out.jd_ptr.assign(static_cast<std::size_t>(njd) + 1, 0);
      for (int j = 0, covered = count; j < njd; ++j) {
        while (plen[static_cast<std::size_t>(covered) - 1] <= j) --covered;
        out.jd_ptr[static_cast<std::size_t>(j) + 1] =
            out.jd_ptr[static_cast<std::size_t>(j)] + covered;
      }
      // Every array at its final size, filled in place.
      const auto total = static_cast<std::size_t>(out.jd_ptr.back());
      out.item.resize(total);
      out.src.resize(total);
      out.val.resize(total * sparse::kBB);
      for (int j = 0; j < njd; ++j) {
        const int p0 = out.jd_ptr[static_cast<std::size_t>(j)];
        const int covered = out.jd_ptr[static_cast<std::size_t>(j) + 1] - p0;
        for (int t = 0; t < covered; ++t) {
          const auto p = static_cast<std::size_t>(p0 + t);
          double* dst = out.val.data() + p * sparse::kBB;
          if (j < len[static_cast<std::size_t>(t)]) {
            const auto [jn, e] =
                stage[static_cast<std::size_t>(at[static_cast<std::size_t>(t)] + j)];
            out.item[p] = jn;
            out.src[p] = e;
            std::copy(a.block(e), a.block(e) + sparse::kBB, dst);
          } else {
            out.item[p] = begin + t;  // dummy: zero block on own row
            out.src[p] = -1;
            std::fill(dst, dst + sparse::kBB, 0.0);
            ++out.dummies;
          }
        }
      }
    };
    build(lo_at, lo_len, lower_[static_cast<std::size_t>(ch)]);
    build(up_at, up_len, upper_[static_cast<std::size_t>(ch)]);
  });

  // ---- 7. Per-sweep loop pattern and entry count -------------------------
  // Structure only, so refill keeps them valid and spmv/spmm add them
  // without walking the chunks. Serial: the histogram is one shared object.
  sweep_entries_ = static_cast<std::uint64_t>(n_);
  for (const auto& sr : super_ranges_)
    sweep_entries_ +=
        static_cast<std::uint64_t>(sr.size) * static_cast<std::uint64_t>(sr.size - 1);
  for (const auto& parts : {std::cref(lower_), std::cref(upper_)}) {
    for (const Jagged& p : parts.get()) {
      sweep_entries_ += static_cast<std::uint64_t>(p.entries());
      for (int j = 0; j < p.num_jd(); ++j)
        jagged_loops_.record(p.jd_ptr[static_cast<std::size_t>(j) + 1] -
                             p.jd_ptr[static_cast<std::size_t>(j)]);
    }
  }

  pack_simd(team);
}

void DJDSMatrix::gather_blocks(const sparse::BlockCSR& a, int team) {
  par::parallel_for(n_, team, 0, [&](std::ptrdiff_t i) {
    const int old = iperm_[static_cast<std::size_t>(i)];
    const double* src = a.block(a.diag_entry(old));
    std::copy(src, src + sparse::kBB, diag_.data() + static_cast<std::size_t>(i) * sparse::kBB);
  });
  par::parallel_for(static_cast<std::ptrdiff_t>(super_ranges_.size()), team, 0,
                    [&](std::ptrdiff_t r) {
    const auto& sr = super_ranges_[static_cast<std::size_t>(r)];
    const int dim = sparse::kB * sr.size;
    auto& dense = super_dense_[static_cast<std::size_t>(r)];
    dense.assign(static_cast<std::size_t>(dim) * dim, 0.0);
    for (int t = 0; t < sr.size; ++t) {
      const int old = iperm_[static_cast<std::size_t>(sr.start + t)];
      for (int e = a.rowptr[old]; e < a.rowptr[old + 1]; ++e) {
        const int jn = perm_[static_cast<std::size_t>(a.colind[e])];
        if (jn < sr.start || jn >= sr.start + sr.size) continue;
        const int tj = jn - sr.start;
        const double* blk = a.block(e);
        for (int br = 0; br < sparse::kB; ++br)
          for (int bc = 0; bc < sparse::kB; ++bc)
            dense[static_cast<std::size_t>(sparse::kB * t + br) * dim +
                  static_cast<std::size_t>(sparse::kB * tj + bc)] = blk[sparse::kB * br + bc];
      }
    }
  });
}

void DJDSMatrix::pack_simd(int team) {
#if GEOFEM_SIMD_HAS_AVX2
  par::parallel_for(static_cast<std::ptrdiff_t>(lower_.size()), team, 1, [&](std::ptrdiff_t ch) {
    for (Jagged* p : {&lower_[static_cast<std::size_t>(ch)], &upper_[static_cast<std::size_t>(ch)]})
      simd::pack_jagged(p->jd_ptr, p->item, p->val.data(), p->packed);
  });
  simd::pack_blocks(diag_.data(), n_, packed_diag_);
#else
  (void)team;
#endif
}

void DJDSMatrix::refill(const sparse::BlockCSR& a) {
  GEOFEM_CHECK(a.n == n_, "DJDSMatrix::refill: matrix size mismatch");
  // The constructor's gathers on the caller's team: diagonal and dense
  // supernode blocks, then the jagged entries chunk by chunk (dummies carry
  // a zero block and never change).
  const int team = par::threads();
  gather_blocks(a, team);
  par::parallel_for(static_cast<std::ptrdiff_t>(lower_.size()), team, 1, [&](std::ptrdiff_t ch) {
    for (Jagged* p : {&lower_[static_cast<std::size_t>(ch)], &upper_[static_cast<std::size_t>(ch)]})
      for (std::size_t t = 0; t < p->src.size(); ++t) {
        if (p->src[t] < 0) continue;
        const double* src = a.block(p->src[t]);
        std::copy(src, src + sparse::kBB, p->val.data() + t * sparse::kBB);
      }
  });
  pack_simd(team);
}

void DJDSMatrix::spmv(std::span<const double> x, std::span<double> y, util::FlopCounter* flops,
                      util::LoopStats* loops) const {
  GEOFEM_CHECK(static_cast<int>(x.size()) == n_ * sparse::kB &&
                   static_cast<int>(y.size()) == n_ * sparse::kB,
               "djds spmv size mismatch");
  // Three phases inside ONE parallel region, an `omp for` each, so the
  // implicit barriers (not a fork/join per phase) separate them. Inside a
  // phase every y row is written by exactly one iteration (its own index /
  // its unique supernode range / its unique chunk), so each row sees the
  // serial accumulation order — diagonal assign, dense couplings, lower then
  // upper jagged — and the result is bit-identical for any team size.
  const int nt = par::threads();
  // Kernel tier is read once, outside the parallel region, so one scope on
  // the calling thread governs the whole operation.
  const bool avx2 = simd::active() == simd::Isa::kAvx2;
  const int nchunks = ncolors_ * opt_.npe;

  // Phase 1 under AVX2: the packed diagonal sweep runs the whole vector as
  // one pass — a streaming O(n) kernel where lane width, not the team, is
  // the lever — before the region opens.
#if GEOFEM_SIMD_HAS_AVX2
  if (avx2) simd::sweep_avx2<simd::Mode::kAssign>(packed_diag_, x.data(), y.data());
#endif

#pragma omp parallel num_threads(nt) if (nt > 1)
  {
    // Phase 1: diagonal contribution (assignment).
    if (!avx2) {
#pragma omp for schedule(static)
      for (int i = 0; i < n_; ++i)
        sparse::b3_apply(diag(i), x.data() + static_cast<std::size_t>(i) * sparse::kB,
                         y.data() + static_cast<std::size_t>(i) * sparse::kB);
    }

    // Phase 2: intra-supernode couplings (dense blocks, member diagonals
    // excluded since they were applied above). Ranges cover disjoint rows.
#pragma omp for schedule(static)
    for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(super_ranges_.size()); ++r) {
      const auto& sr = super_ranges_[static_cast<std::size_t>(r)];
      const auto& dense = super_dense_[static_cast<std::size_t>(r)];
      const int dim = sparse::kB * sr.size;
      for (int ti = 0; ti < sr.size; ++ti) {
        double* yi = y.data() + static_cast<std::size_t>(sr.start + ti) * sparse::kB;
        for (int tj = 0; tj < sr.size; ++tj) {
          if (ti == tj) continue;
          const double* xj = x.data() + static_cast<std::size_t>(sr.start + tj) * sparse::kB;
          for (int br = 0; br < sparse::kB; ++br) {
            const double* drow = dense.data() +
                                 static_cast<std::size_t>(sparse::kB * ti + br) * dim +
                                 static_cast<std::size_t>(sparse::kB * tj);
            yi[br] += drow[0] * xj[0] + drow[1] * xj[1] + drow[2] * xj[2];
          }
        }
      }
    }

    // Phase 3: jagged parts; each chunk owns a contiguous, disjoint row range
    // and runs its lower then upper diagonals serially.
#pragma omp for schedule(static)
    for (int ch = 0; ch < nchunks; ++ch) {
      const int begin = chunk_begin_[static_cast<std::size_t>(ch)];
      for (const Jagged* part : {&lower_[static_cast<std::size_t>(ch)],
                                 &upper_[static_cast<std::size_t>(ch)]}) {
#if GEOFEM_SIMD_HAS_AVX2
        if (avx2) {
          simd::sweep_avx2<simd::Mode::kAdd>(
              part->packed, x.data(), y.data() + static_cast<std::size_t>(begin) * sparse::kB);
          continue;
        }
#endif
        for (int j = 0; j < part->num_jd(); ++j) {
          const int s = part->jd_ptr[static_cast<std::size_t>(j)];
          const int e = part->jd_ptr[static_cast<std::size_t>(j) + 1];
          // This is the long innermost loop DJDS exists for: one entry of
          // each covered row, rows contiguous from the chunk start. Rows
          // within a diagonal are independent (distinct y blocks), so the
          // lanes may process them together.
          GEOFEM_PRAGMA_SIMD
          for (int t = s; t < e; ++t) {
            sparse::b3_gemv(part->val.data() + static_cast<std::size_t>(t) * sparse::kBB,
                            x.data() + static_cast<std::size_t>(part->item[static_cast<std::size_t>(t)]) * sparse::kB,
                            y.data() + static_cast<std::size_t>(begin + (t - s)) * sparse::kB);
          }
        }
      }
    }
  }

  if (loops) {
    loops->record(n_);
    loops->merge(jagged_loops_);
  }
  if (flops) flops->spmv += 2ULL * sparse::kBB * sweep_entries_;
}

namespace {

/// Multi-RHS twin of the spmv phases: same row/range/chunk partition, same
/// barrier structure, innermost loops over RHS columns (simd::b3k_* kernels
/// pick the tier via UseAvx — the packed lane-transposed sweeps do not apply
/// here because the lane axis is the column dimension). Phases 1+2 (diagonal
/// assign, dense supernode couplings) are shared with the k = 4*KV fast path
/// below, which replaces only the jagged phase.
template <bool UseAvx>
void djds_spmm_diag_dense(const DJDSMatrix& m, const double* x, double* y, int k, int nt) {
  const std::size_t rk = static_cast<std::size_t>(sparse::kB) * static_cast<std::size_t>(k);
  const int n = m.n();
  // Phase 1: diagonal contribution (assignment).
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
  for (int i = 0; i < n; ++i)
    simd::b3k_apply<double, UseAvx>(m.diag(i), x + static_cast<std::size_t>(i) * rk,
                                    y + static_cast<std::size_t>(i) * rk, k);

  // Phase 2: intra-supernode dense couplings (member diagonals excluded).
  const auto& ranges = m.super_ranges();
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
  for (std::ptrdiff_t r = 0; r < static_cast<std::ptrdiff_t>(ranges.size()); ++r) {
    const auto& sr = ranges[static_cast<std::size_t>(r)];
    const auto& dense = m.super_dense(static_cast<int>(r));
    const int dim = sparse::kB * sr.size;
    for (int ti = 0; ti < sr.size; ++ti) {
      double* yi = y + static_cast<std::size_t>(sr.start + ti) * rk;
      for (int tj = 0; tj < sr.size; ++tj) {
        if (ti == tj) continue;
        const double* xj = x + static_cast<std::size_t>(sr.start + tj) * rk;
        for (int br = 0; br < sparse::kB; ++br) {
          const double* drow = dense.data() +
                               static_cast<std::size_t>(sparse::kB * ti + br) * dim +
                               static_cast<std::size_t>(sparse::kB * tj);
          simd::row3k_madd<double, UseAvx>(drow, xj, yi + static_cast<std::size_t>(br) * k, k);
        }
      }
    }
  }

}

/// Phase 3, generic: jagged parts streamed diagonal-major; chunks own
/// contiguous, disjoint row ranges.
template <bool UseAvx>
void djds_spmm_jagged(const DJDSMatrix& m, const double* x, double* y, int k, int nt) {
  const std::size_t rk = static_cast<std::size_t>(sparse::kB) * static_cast<std::size_t>(k);
  const int nchunks = m.num_colors() * m.npe();
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
  for (int ch = 0; ch < nchunks; ++ch) {
    const int begin = m.chunk_begin()[static_cast<std::size_t>(ch)];
    for (const Jagged* part : {&m.lower(ch), &m.upper(ch)}) {
      for (int j = 0; j < part->num_jd(); ++j) {
        const int s = part->jd_ptr[static_cast<std::size_t>(j)];
        const int e = part->jd_ptr[static_cast<std::size_t>(j) + 1];
        for (int t = s; t < e; ++t) {
          simd::b3k_madd<double, UseAvx>(
              part->val.data() + static_cast<std::size_t>(t) * sparse::kBB,
              x + static_cast<std::size_t>(part->item[static_cast<std::size_t>(t)]) * rk,
              y + static_cast<std::size_t>(begin + (t - s)) * rk, k);
        }
      }
    }
  }
}

#if GEOFEM_SIMD_HAS_AVX2
/// Phase 3, k = 4*KV fast path: row-major sweep with the whole 3*k row of Y
/// held in ymm registers (simd::AvxAccK) while every jagged diagonal that
/// reaches the row contributes, instead of re-loading and re-storing Y for
/// each diagonal. For one row the contributions still arrive in the exact
/// order of the generic sweep — lower diagonals in index order, then upper —
/// and AvxAccK applies the same per-lane FMA sequence as b3k_madd, so the
/// result is bit-identical to djds_spmm_jagged<true>.
template <int KV>
void djds_spmm_jagged_avxk(const DJDSMatrix& m, const double* x, double* y, int nt) {
  constexpr std::size_t rk = static_cast<std::size_t>(sparse::kB) * 4 * KV;
  const int nchunks = m.num_colors() * m.npe();
#pragma omp parallel for schedule(static) num_threads(nt) if (nt > 1)
  for (int ch = 0; ch < nchunks; ++ch) {
    const int begin = m.chunk_begin()[static_cast<std::size_t>(ch)];
    const Jagged& lo = m.lower(ch);
    const Jagged& up = m.upper(ch);
    int rows = 0;  // rows with at least one jagged entry (longest diagonal)
    for (const Jagged* part : {&lo, &up})
      for (int j = 0; j < part->num_jd(); ++j)
        rows = std::max(rows, part->jd_ptr[static_cast<std::size_t>(j) + 1] -
                                  part->jd_ptr[static_cast<std::size_t>(j)]);
    for (int ro = 0; ro < rows; ++ro) {
      double* yi = y + static_cast<std::size_t>(begin + ro) * rk;
      simd::AvxAccK<double, KV> acc;
      acc.init_load(yi);
      for (const Jagged* part : {&lo, &up}) {
        for (int j = 0; j < part->num_jd(); ++j) {
          const int s = part->jd_ptr[static_cast<std::size_t>(j)];
          const int len = part->jd_ptr[static_cast<std::size_t>(j) + 1] - s;
          if (ro >= len) continue;  // this diagonal is shorter than the row
          const std::size_t t = static_cast<std::size_t>(s + ro);
          acc.madd(part->val.data() + t * sparse::kBB,
                   x + static_cast<std::size_t>(part->item[t]) * rk);
        }
      }
      acc.reduce(yi);
    }
  }
}
#endif  // GEOFEM_SIMD_HAS_AVX2

template <bool UseAvx>
void djds_spmm_impl(const DJDSMatrix& m, const double* x, double* y, int k, int nt) {
  djds_spmm_diag_dense<UseAvx>(m, x, y, k, nt);
  djds_spmm_jagged<UseAvx>(m, x, y, k, nt);
}

}  // namespace

void DJDSMatrix::spmm(std::span<const double> x, std::span<double> y, int k,
                      util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(k >= 1 && k <= simd::kMaxMultiRhs, "djds spmm: bad column count");
  const std::size_t need =
      static_cast<std::size_t>(n_) * sparse::kB * static_cast<std::size_t>(k);
  GEOFEM_CHECK(x.size() == need && y.size() == need, "djds spmm size mismatch");
  const int nt = par::threads();
#if GEOFEM_SIMD_HAS_AVX2
  if (simd::active() == simd::Isa::kAvx2) {
    djds_spmm_diag_dense<true>(*this, x.data(), y.data(), k, nt);
    // Register-resident jagged sweep for the common batch widths (dispatch
    // depends only on k, so results stay deterministic within a build).
    if (k == 4)
      djds_spmm_jagged_avxk<1>(*this, x.data(), y.data(), nt);
    else if (k == 8)
      djds_spmm_jagged_avxk<2>(*this, x.data(), y.data(), nt);
    else
      djds_spmm_jagged<true>(*this, x.data(), y.data(), k, nt);
  } else
#endif
  {
    djds_spmm_impl<false>(*this, x.data(), y.data(), k, nt);
  }
  if (loops) {
    loops->record(n_);
    loops->merge(jagged_loops_);
  }
  if (flops) flops->spmv += 2ULL * sparse::kBB * sweep_entries_ * static_cast<std::uint64_t>(k);
}

double DJDSMatrix::average_vector_length() const { return jagged_loops_.average(); }

double DJDSMatrix::load_imbalance_percent() const {
  std::vector<std::int64_t> rows_per_pe(static_cast<std::size_t>(opt_.npe), 0);
  for (int c = 0; c < ncolors_; ++c)
    for (int p = 0; p < opt_.npe; ++p) {
      const int ch = chunk_index(c, p);
      rows_per_pe[static_cast<std::size_t>(p)] +=
          chunk_begin_[static_cast<std::size_t>(ch) + 1] - chunk_begin_[static_cast<std::size_t>(ch)];
    }
  const auto [mn, mx] = std::minmax_element(rows_per_pe.begin(), rows_per_pe.end());
  const double avg = static_cast<double>(n_) / opt_.npe;
  return avg == 0.0 ? 0.0 : 100.0 * static_cast<double>(*mx - *mn) / avg;
}

double DJDSMatrix::dummy_percent() const {
  std::int64_t dummies = 0, entries = 0;
  for (const auto& parts : {std::cref(lower_), std::cref(upper_)}) {
    for (const Jagged& p : parts.get()) {
      dummies += p.dummies;
      entries += p.entries();
    }
  }
  return entries == 0 ? 0.0 : 100.0 * static_cast<double>(dummies) / static_cast<double>(entries);
}

std::size_t DJDSMatrix::memory_bytes() const {
  std::size_t bytes = diag_.size() * sizeof(double) +
                      (perm_.size() + iperm_.size() + chunk_begin_.size()) * sizeof(int);
  for (const auto& d : super_dense_) bytes += d.size() * sizeof(double);
  for (const auto& parts : {std::cref(lower_), std::cref(upper_)}) {
    for (const Jagged& p : parts.get())
      bytes += (p.val.size() + p.packed.val.size()) * sizeof(double) +
               (p.item.size() + p.src.size() + p.jd_ptr.size()) * sizeof(int) +
               p.packed.item3.size() * sizeof(std::int32_t);
  }
  return bytes + packed_diag_.val.size() * sizeof(double) +
         packed_diag_.item3.size() * sizeof(std::int32_t);
}

}  // namespace geofem::reorder
