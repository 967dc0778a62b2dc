#include "precond/preconditioner.hpp"

#include <vector>

#include "sparse/multivec.hpp"
#include "util/check.hpp"

namespace geofem::precond {

util::LoopStats substitution_loops(std::span<const int> lptr, std::span<const int> uptr) {
  util::LoopStats loops;
  for (const auto ptr : {lptr, uptr})
    for (std::size_t i = 0; i + 1 < ptr.size(); ++i) loops.record(ptr[i + 1] - ptr[i] + 1);
  return loops;
}

void Preconditioner::apply_multi(std::span<const double> r, std::span<double> z, int k,
                                 util::FlopCounter* flops, util::LoopStats* loops) const {
  GEOFEM_CHECK(k >= 1, "apply_multi: bad column count");
  GEOFEM_CHECK(r.size() == z.size() && r.size() % static_cast<std::size_t>(k) == 0,
               "apply_multi size mismatch");
  const std::size_t n = r.size() / static_cast<std::size_t>(k);
  if (k == 1) {
    apply(r, z, flops, loops);
    return;
  }
  // Column-loop fallback: k single-RHS applies through contiguous staging
  // buffers. Correct for every implementation; overrides exist to stream the
  // factors once instead of k times.
  static thread_local std::vector<double> rcol, zcol;
  if (rcol.size() < n) {
    rcol.resize(n);
    zcol.resize(n);
  }
  for (int c = 0; c < k; ++c) {
    sparse::gather_column(r.data(), n, k, c, rcol.data());
    apply(std::span<const double>(rcol.data(), n), std::span<double>(zcol.data(), n), flops,
          loops);
    sparse::scatter_column(zcol.data(), n, k, c, z.data());
  }
}

}  // namespace geofem::precond
