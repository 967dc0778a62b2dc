#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "par/par.hpp"

namespace geofem::sparse {

/// Builds a CSR sparsity pattern of `nrows` rows over columns [0, ncols)
/// from candidate columns that may repeat. `row(i, emit)` must call
/// `emit(j)` for every candidate column j of row i, the same sequence each
/// time it is called. A per-column marker drops a repeat the moment it is
/// emitted, so no row ever holds a duplicate: a count pass sizes `ind`
/// exactly, a fill pass writes each row, and each row is sorted once. Both
/// passes run their rows on the caller's team (par::threads()), each thread
/// with its own marker; every row is formed by one thread alone, so the
/// pattern is the same for every team size. `row` must be safe to call
/// concurrently.
template <class Row>
void mark_and_sort_rows(int nrows, int ncols, Row&& row, std::vector<int>& ptr,
                        std::vector<int>& ind) {
  const int team = par::threads();
  // A thread's marker, sized on first use: mark[j] == i once row i emitted j.
  struct Marker {
    std::vector<int> mark;
    std::vector<int>& sized(int n) {
      if (mark.empty()) mark.assign(static_cast<std::size_t>(n), -1);
      return mark;
    }
  };
  ptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  par::parallel_for_with<Marker>(nrows, team, 0, [&](Marker& m, std::ptrdiff_t pi) {
    const int i = static_cast<int>(pi);
    auto& mark = m.sized(ncols);
    int len = 0;
    row(i, [&](int j) {
      if (mark[static_cast<std::size_t>(j)] != i) {
        mark[static_cast<std::size_t>(j)] = i;
        ++len;
      }
    });
    ptr[static_cast<std::size_t>(i) + 1] = len;
  });
  std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());
  ind.resize(static_cast<std::size_t>(ptr.back()));
  par::parallel_for_with<Marker>(nrows, team, 0, [&](Marker& m, std::ptrdiff_t pi) {
    const int i = static_cast<int>(pi);
    auto& mark = m.sized(ncols);
    auto p = ind.begin() + ptr[static_cast<std::size_t>(i)];
    const auto first = p;
    row(i, [&](int j) {
      if (mark[static_cast<std::size_t>(j)] != i) {
        mark[static_cast<std::size_t>(j)] = i;
        *p++ = j;
      }
    });
    std::sort(first, p);
  });
}

}  // namespace geofem::sparse
