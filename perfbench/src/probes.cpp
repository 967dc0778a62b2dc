// Host probes of the traced run: a STREAM-triad bandwidth ceiling and a
// 2-rank allreduce / halo latency probe over dist::Runtime.

#include <omp.h>

#include <algorithm>

#include "dist/comm.hpp"
#include "workloads.hpp"

namespace pb {

namespace gf = geofem;

double probe_stream(Result& res) {
  // Triad a = b + s*c over arrays whose total size is at least 4x the L3,
  // with the kernels' 2-thread team. Bytes counted STREAM-style: 24 per
  // element (no write-allocate). Best of the repetitions, as STREAM reports.
  constexpr int kThreads = 2;
  const std::size_t l3 = l3_bytes() ? l3_bytes() : std::size_t{105} << 20;
  const std::size_t n = 4 * l3 / (3 * sizeof(double)) + 1;
  std::vector<double> a(n), b(n), c(n);
#pragma omp parallel for num_threads(kThreads) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  for (int rep = 0; rep < 6; ++rep) {
    const double t0 = now_s();
    const double s = 0.5 + rep;
#pragma omp parallel for num_threads(kThreads) schedule(static)
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) / dt * 1e-9);
  }
  if (a[n / 2] != 1.0 + 5.5 * 2.0) res.fail("stream probe: wrong triad result");
  res.metric("host.stream_gbs", best, "GB/s");
  res.metric("host.stream_array_mb", 3.0 * sizeof(double) * static_cast<double>(n) / (1 << 20),
             "MiB");
  res.metric("host.l3_mb", static_cast<double>(l3) / (1 << 20), "MiB");
  return best;
}

void probe_comm(std::size_t halo_doubles, Result& res) {
  // Per-operation latency on 2 in-process ranks, as the median of batch
  // means: a scalar allreduce_sum, and a halo-sized send + recv exchange.
  constexpr int kBatches = 15, kPerBatch = 200, kTag = 7001;
  std::vector<double> allreduce_us, halo_us;
  double sum_check = 0.0;
  gf::dist::Runtime::run(2, [&](gf::dist::Comm& comm) {
    const int other = 1 - comm.rank();
    std::vector<double> payload(halo_doubles, 1.0);
    for (int w = 0; w < kPerBatch; ++w) (void)comm.allreduce_sum(1.0);
    for (int b = 0; b < kBatches; ++b) {
      comm.barrier();
      const double t0 = now_s();
      double s = 0.0;
      for (int i = 0; i < kPerBatch; ++i) s += comm.allreduce_sum(1.0);
      const double dt = now_s() - t0;
      comm.barrier();
      const double t1 = now_s();
      for (int i = 0; i < kPerBatch; ++i) {
        comm.send(other, kTag, payload);
        (void)comm.recv(other, kTag);
      }
      const double dh = now_s() - t1;
      if (comm.rank() == 0) {
        allreduce_us.push_back(dt / kPerBatch * 1e6);
        halo_us.push_back(dh / kPerBatch * 1e6);
        sum_check += s;
      }
    }
  });
  if (sum_check != 2.0 * kBatches * kPerBatch) res.fail("comm probe: wrong allreduce result");
  res.metric("comm.allreduce_us", median(allreduce_us), "us");
  res.metric("comm.halo_us", median(halo_us), "us");
  res.metric("comm.halo_doubles", static_cast<double>(halo_doubles), "count");
}

}  // namespace pb
