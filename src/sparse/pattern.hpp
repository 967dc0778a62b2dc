#pragma once

#include <algorithm>
#include <vector>

namespace geofem::sparse {

/// Builds a CSR sparsity pattern of `nrows` rows over columns [0, ncols)
/// from candidate columns that may repeat. `row(i, emit)` must call
/// `emit(j)` for every candidate column j of row i, the same sequence each
/// time it is called. A per-column marker drops a repeat the moment it is
/// emitted, so no row ever holds a duplicate: a count pass sizes `ind`
/// exactly, a fill pass writes each row, and each row is sorted once.
template <class Row>
void mark_and_sort_rows(int nrows, int ncols, Row&& row, std::vector<int>& ptr,
                        std::vector<int>& ind) {
  std::vector<int> mark(static_cast<std::size_t>(ncols), -1);
  ptr.assign(static_cast<std::size_t>(nrows) + 1, 0);
  for (int i = 0; i < nrows; ++i) {
    int len = 0;
    row(i, [&](int j) {
      if (mark[static_cast<std::size_t>(j)] != i) {
        mark[static_cast<std::size_t>(j)] = i;
        ++len;
      }
    });
    ptr[static_cast<std::size_t>(i) + 1] = ptr[static_cast<std::size_t>(i)] + len;
  }
  ind.resize(static_cast<std::size_t>(ptr.back()));
  std::fill(mark.begin(), mark.end(), -1);
  for (int i = 0; i < nrows; ++i) {
    auto p = ind.begin() + ptr[static_cast<std::size_t>(i)];
    const auto first = p;
    row(i, [&](int j) {
      if (mark[static_cast<std::size_t>(j)] != i) {
        mark[static_cast<std::size_t>(j)] = i;
        *p++ = j;
      }
    });
    std::sort(first, p);
  }
}

}  // namespace geofem::sparse
