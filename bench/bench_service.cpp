// Solver-service capacity benchmark (DESIGN.md §5g). Drives svc::SolverService
// with deterministic svc::Workload mixes and reports per-class p50/p95/p99
// latency, throughput, queue depth and plan-cache hit rate, then measures the
// warm-vs-cold throughput gap (the value of the shared plan cache: identical
// requests with and without plan reuse on the same worker pool).
//
// The request-coalescing sections (DESIGN.md §5k) measure the batched
// multi-RHS dispatch: a coalescable same-key request stream served with
// max_batch = k vs the same stream served one request at a time, plus a
// coalescable workload mix whose svc.batch_size histogram reports achieved
// occupancy. `--max-batch N` overrides the batch width (default 4); when the
// flag is given explicitly the binary additionally exits nonzero unless at
// least one batch of >= 2 requests actually formed.
//
// The binary exits nonzero if any request is lost (submitted != completed +
// rejected), if a warm solve is not bit-identical to the cold solve of the
// same request, if a solo request through a coalescing-enabled service is
// not bit-identical to the same request with coalescing off, or (with
// max_batch > 1) if same-key Gropp requests or same-key fp32 requests fail
// to share a dispatch of >= 2 with every response ok — CI runs it
// (tiny, under sanitizers) as the service smoke test: GEOFEM_BENCH_TINY=1
// shrinks the mesh and the workloads.

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "util/timer.hpp"

namespace {

struct MixResult {
  std::string name;
  geofem::svc::ReplayStats stats;
  double hit_rate = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace geofem;
  const char* tiny_env = std::getenv("GEOFEM_BENCH_TINY");
  const bool tiny = tiny_env && *tiny_env && std::string(tiny_env) != "0";
  int max_batch = 4;
  bool max_batch_flag = false;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--max-batch") {
      max_batch = std::atoi(argv[i + 1]);
      max_batch_flag = true;
    }
  const auto params = tiny                   ? mesh::SimpleBlockParams{3, 3, 2, 3, 3}
                      : bench::paper_scale() ? mesh::SimpleBlockParams{10, 10, 8, 10, 10}
                                             : mesh::SimpleBlockParams{6, 6, 4, 6, 6};
  const mesh::HexMesh m = mesh::simple_block(params);
  const fem::BoundaryConditions bc = bench::simple_block_bc(m);

  obs::Registry reg;
  obs::Attach attach(&reg);
  bench::describe_problem(reg, m.num_dof(), 1e6);

  svc::ServiceOptions base;
  base.workers = 4;
  base.queue_capacity = 4096;  // mixes measure latency, not admission control
  base.solve.threads = 1;      // workers are the parallelism; don't oversubscribe
  // BIC(2) at a loose interactive tolerance trades the heaviest symbolic
  // set-up (level-fill pattern computation) for the fewest CG iterations —
  // the shape where a per-request rebuild hurts most and the shared plan
  // cache pays best. SB-BIC(0)/PDJDS
  // request paths are covered by bench_plan_reuse and the svc test suite.
  base.solve.precond = core::PrecondKind::kBIC2;
  base.solve.cg.tolerance = 1e-3;
  base.keep_solutions = false;
  reg.set_meta("svc.workers", static_cast<double>(base.workers));

  std::cout << "== Solver service capacity: " << m.num_dof() << " DOF, " << base.workers
            << " workers ==\n\n";
  bool all_ok = true;

  // -------------------------------------------------------------------------
  // Workload mixes: saturation replay (submit as fast as generated), per-class
  // latency distributions from the service registry's histograms.
  // -------------------------------------------------------------------------
  const double horizon = tiny ? 0.25 : 2.0;
  svc::TrafficClass interactive;
  interactive.priority = svc::Priority::kInteractive;
  interactive.arrival = svc::ArrivalProcess::kPoisson;
  interactive.lambdas = {1e4, 1e6, 1e8};
  svc::TrafficClass batch;
  batch.priority = svc::Priority::kBatch;
  batch.load_scales = {0.5, 1.0, 2.0};

  std::vector<std::pair<std::string, svc::WorkloadOptions>> mixes;
  {
    // Mix 1: interactive-heavy Poisson traffic with a batch undercurrent (the
    // "analysts at their desks" shape).
    svc::WorkloadOptions wl;
    wl.horizon = horizon;
    wl.seed = 42;
    svc::TrafficClass i = interactive, b = batch;
    i.rate = 80.0;
    b.rate = 20.0;
    b.arrival = svc::ArrivalProcess::kPoisson;
    wl.classes = {i, b};
    mixes.emplace_back("interactive_heavy", wl);
  }
  {
    // Mix 2: bursty batch (parameter sweeps landing as bursts) against an
    // interactive trickle — the tail-latency stressor.
    svc::WorkloadOptions wl;
    wl.horizon = horizon;
    wl.seed = 43;
    svc::TrafficClass i = interactive, b = batch;
    i.rate = 20.0;
    b.rate = 80.0;
    b.arrival = svc::ArrivalProcess::kBurst;
    b.mean_burst = 8;
    wl.classes = {i, b};
    mixes.emplace_back("bursty_batch", wl);
  }
  {
    // Mix 3: coalescable batch — bursty batch traffic on a SINGLE lambda, so
    // every request shares one coalescing key (model, lambda, contact state)
    // and the batched dispatch can form multi-RHS solves. Served with
    // max_batch enabled; the svc.batch_size histogram reports the achieved
    // occupancy under a realistic arrival process (vs the saturated stream of
    // the throughput section below).
    svc::WorkloadOptions wl;
    wl.horizon = horizon;
    wl.seed = 44;
    svc::TrafficClass i = interactive, b = batch;
    i.rate = 10.0;
    i.lambdas = {1e6};
    b.rate = 90.0;
    b.arrival = svc::ArrivalProcess::kBurst;
    b.mean_burst = 8;
    b.lambdas = {1e6};
    wl.classes = {i, b};
    mixes.emplace_back("coalescable_batch", wl);
  }

  util::Table table({"mix", "class", "n", "p50 ms", "p95 ms", "p99 ms", "req/s", "hit rate"});
  std::vector<MixResult> results;
  double max_batch_seen = 1.0;  // largest coalesced dispatch observed anywhere
  for (const auto& [name, wl] : mixes) {
    svc::ServiceOptions mix_opt = base;
    if (name == "coalescable_batch" && max_batch > 1) mix_opt.max_batch = max_batch;
    svc::SolverService svc(mix_opt);
    svc.register_model(m, {{1.0, 0.3}}, bc);
    const std::vector<svc::Event> events = svc::generate(wl);
    MixResult res;
    res.name = name;
    res.stats = svc::replay(svc, events, /*time_scale=*/0.0);
    svc.publish_stats();
    all_ok = all_ok && res.stats.lossless() && res.stats.failed == 0;
    // monotonic admission totals across all mixes — the bench report's
    // counters section (satellite of the coalescing work: this used to be
    // empty because everything service-side was folded into gauges)
    const svc::SolverService::Counts mix_counts = svc.counts();
    reg.counter("svc.submitted")->add(mix_counts.submitted);
    reg.counter("svc.completed")->add(mix_counts.completed);
    reg.counter("svc.rejected")->add(mix_counts.rejected);
    reg.counter("svc.failed")->add(mix_counts.failed);

    const obs::Snapshot snap = svc.registry().snapshot();
    if (mix_opt.max_batch > 1) {
      // achieved multi-RHS occupancy under this arrival process, plus the
      // service-side coalescing counters, folded into the bench report
      if (const obs::HistogramData* bs = snap.histogram("svc.batch_size")) {
        reg.gauge("svc." + name + ".batch_size.mean")->set(bs->mean());
        reg.gauge("svc." + name + ".batch_size.max")->set(bs->max);
        reg.gauge("svc." + name + ".batch_size.count")->set(static_cast<double>(bs->count));
        max_batch_seen = std::max(max_batch_seen, bs->max);
      }
      if (const std::uint64_t* c = snap.counter("svc.coalesce.hit"))
        reg.counter("svc.coalesce.hit")->add(*c);
      if (const std::uint64_t* c = snap.counter("svc.coalesce.window_timeout"))
        reg.counter("svc.coalesce.window_timeout")->add(*c);
    }
    const double* hits = snap.gauge("plan.cache.hits");
    const double* misses = snap.gauge("plan.cache.misses");
    const double lookups = (hits ? *hits : 0.0) + (misses ? *misses : 0.0);
    res.hit_rate = lookups > 0.0 ? (hits ? *hits : 0.0) / lookups : 0.0;
    results.push_back(res);

    for (const char* cls : {"interactive", "batch"}) {
      const obs::HistogramData* lat = snap.histogram(std::string("svc.latency.") + cls);
      if (!lat || lat->count == 0) continue;
      table.row({name, cls, bench::fmt_int(static_cast<std::int64_t>(lat->count)),
                 util::Table::fmt(lat->quantile(0.50) * 1e3, 2),
                 util::Table::fmt(lat->quantile(0.95) * 1e3, 2),
                 util::Table::fmt(lat->quantile(0.99) * 1e3, 2),
                 util::Table::fmt(res.stats.throughput(), 1),
                 util::Table::fmt(res.hit_rate, 3)});
      // fold the per-mix distribution into the bench report
      const std::string p = "svc." + name + ".latency." + cls;
      reg.gauge(p + ".p50")->set(lat->quantile(0.50));
      reg.gauge(p + ".p95")->set(lat->quantile(0.95));
      reg.gauge(p + ".p99")->set(lat->quantile(0.99));
      reg.gauge(p + ".count")->set(static_cast<double>(lat->count));
    }
    reg.gauge("svc." + name + ".throughput")->set(res.stats.throughput());
    reg.gauge("svc." + name + ".hit_rate")->set(res.hit_rate);
    reg.gauge("svc." + name + ".rejected")->set(static_cast<double>(res.stats.rejected));
    reg.gauge("svc." + name + ".submitted")->set(static_cast<double>(res.stats.submitted));
  }
  table.print();

  // -------------------------------------------------------------------------
  // Warm vs cold: identical requests through identical worker pools, with the
  // plan cache on vs off. The gap is the symbolic set-up the cache amortizes.
  // -------------------------------------------------------------------------
  const int n_requests = tiny ? 8 : 64;
  const int n_repeats = tiny ? 1 : 7;
  std::vector<double> wall[2];  // per-repeat wall seconds, [warm, cold]
  for (int rep = 0; rep < n_repeats; ++rep) {
    // Alternate which side runs first: frequency/thermal drift within the
    // process would otherwise systematically land on the second side.
    for (int leg = 0; leg < 2; ++leg) {
      const int cold = leg ^ (rep & 1);
      svc::ServiceOptions opt = base;
      opt.solve.use_plan_cache = cold == 0;
      svc::SolverService svc(opt);
      const svc::ModelId model = svc.register_model(m, {{1.0, 0.3}}, bc);
      svc::SolveRequest req;
      req.model = model;
      req.lambda = 1e6;
      // untimed spin-up: fills the cache on the warm side (steady-state
      // capacity is the service's operating point) and settles the CPU
      for (int i = 0; i < base.workers; ++i) svc.submit(req);
      svc.drain();
      std::vector<std::future<svc::SolveResponse>> futures;
      util::Timer timer;
      for (int i = 0; i < n_requests; ++i) futures.push_back(svc.submit(req));
      std::uint64_t completed = 0;
      for (auto& f : futures) completed += ok(f.get().status) ? 1u : 0u;
      wall[cold].push_back(timer.seconds());
      all_ok = all_ok && completed == static_cast<std::uint64_t>(n_requests);
    }
  }
  // Each repeat pairs a warm and a cold leg back-to-back, so the per-repeat
  // ratio cancels the common-mode frequency/steal drift of a shared host;
  // the median over repeats then discards the odd scheduler hiccup.
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  std::vector<double> rep_ratio;
  for (int rep = 0; rep < n_repeats; ++rep)
    rep_ratio.push_back(wall[1][static_cast<std::size_t>(rep)] /
                        wall[0][static_cast<std::size_t>(rep)]);
  const double thr[2] = {n_requests / median(wall[0]), n_requests / median(wall[1])};
  const double ratio = median(rep_ratio);
  reg.gauge("svc.warm.throughput")->set(thr[0]);
  reg.gauge("svc.cold.throughput")->set(thr[1]);
  reg.gauge("svc.warm_cold_ratio")->set(ratio);
  std::cout << "\nwarm cache: " << util::Table::fmt(thr[0], 1) << " req/s   cold: "
            << util::Table::fmt(thr[1], 1) << " req/s   ratio: " << util::Table::fmt(ratio, 2)
            << "x (" << n_requests << " identical requests, " << base.workers << " workers)\n";

  // -------------------------------------------------------------------------
  // Coalesced vs solo: a saturated same-key stream served with max_batch = k
  // against the identical stream served one request at a time. The gap is the
  // multi-RHS amortization — one assembly + factor application + SpMM-driven
  // CG iteration shared by every coalesced column. Same alternating-leg /
  // per-repeat-ratio / median structure as warm-vs-cold above.
  // -------------------------------------------------------------------------
  if (max_batch > 1) {
    std::vector<double> bwall[2];  // per-repeat wall seconds, [coalesced, solo]
    double occupancy = 0.0;
    for (int rep = 0; rep < n_repeats; ++rep) {
      for (int leg = 0; leg < 2; ++leg) {
        const int solo = leg ^ (rep & 1);
        svc::ServiceOptions opt = base;
        opt.max_batch = solo ? 1 : max_batch;
        opt.batch_window = 0.0;  // opportunistic only: never trade latency for width
        svc::SolverService svc(opt);
        const svc::ModelId model = svc.register_model(m, {{1.0, 0.3}}, bc);
        svc::SolveRequest req;
        req.model = model;
        req.priority = svc::Priority::kBatch;
        req.lambda = 1e6;
        for (int i = 0; i < base.workers; ++i) svc.submit(req);
        svc.drain();
        std::vector<std::future<svc::SolveResponse>> futures;
        util::Timer timer;
        for (int i = 0; i < n_requests; ++i) futures.push_back(svc.submit(req));
        std::uint64_t completed = 0;
        for (auto& f : futures) completed += ok(f.get().status) ? 1u : 0u;
        bwall[solo].push_back(timer.seconds());
        all_ok = all_ok && completed == static_cast<std::uint64_t>(n_requests);
        if (solo == 0) {
          const obs::Snapshot snap = svc.registry().snapshot();
          if (const obs::HistogramData* bs = snap.histogram("svc.batch_size")) {
            max_batch_seen = std::max(max_batch_seen, bs->max);
            occupancy = std::max(occupancy, bs->mean());
          }
        }
      }
    }
    std::vector<double> batch_rep_ratio;
    for (int rep = 0; rep < n_repeats; ++rep)
      batch_rep_ratio.push_back(bwall[1][static_cast<std::size_t>(rep)] /
                                bwall[0][static_cast<std::size_t>(rep)]);
    const double bthr[2] = {n_requests / median(bwall[0]), n_requests / median(bwall[1])};
    const double batch_speedup = median(batch_rep_ratio);
    reg.gauge("svc.coalesced.throughput")->set(bthr[0]);
    reg.gauge("svc.solo.throughput")->set(bthr[1]);
    reg.gauge("svc.batch_speedup")->set(batch_speedup);
    reg.gauge("svc.batch_size.max")->set(max_batch_seen);
    reg.gauge("svc.batch_size.mean")->set(occupancy);
    std::cout << "coalesced (max_batch=" << max_batch << "): " << util::Table::fmt(bthr[0], 1)
              << " req/s   solo: " << util::Table::fmt(bthr[1], 1)
              << " req/s   speedup: " << util::Table::fmt(batch_speedup, 2)
              << "x   occupancy: " << util::Table::fmt(occupancy, 2) << "/" << max_batch
              << " (max batch " << util::Table::fmt(max_batch_seen, 0) << ")\n";
  }

  // -------------------------------------------------------------------------
  // Warm == cold bit-identity: the cached symbolic set-up must change nothing
  // about the numbers. One request served cold, then warm, on one worker.
  // -------------------------------------------------------------------------
  bool identical = true;
  {
    svc::ServiceOptions opt = base;
    opt.workers = 1;
    opt.keep_solutions = true;
    svc::SolverService svc(opt);
    const svc::ModelId model = svc.register_model(m, {{1.0, 0.3}}, bc);
    svc::SolveRequest req;
    req.model = model;
    req.lambda = 1e6;
    const svc::SolveResponse cold = svc.submit(req).get();
    const svc::SolveResponse warm = svc.submit(req).get();
    identical = ok(cold.status) && ok(warm.status) && warm.report.plan_reused &&
                cold.report.solution.size() == warm.report.solution.size();
    for (std::size_t i = 0; identical && i < cold.report.solution.size(); ++i)
      identical = cold.report.solution[i] == warm.report.solution[i];
  }
  reg.gauge("svc.warm_cold_identical")->set(identical ? 1.0 : 0.0);

  // -------------------------------------------------------------------------
  // Solo-through-coalescing bit-identity: with max_batch = k but only one
  // request in flight, the batched dispatch degenerates to a batch of one,
  // which delegates to the scalar path — so enabling coalescing must not
  // change a single bit of a lone request's solution.
  // -------------------------------------------------------------------------
  bool solo_identical = true;
  if (max_batch > 1) {
    svc::ServiceOptions opt = base;
    opt.workers = 1;
    opt.keep_solutions = true;
    svc::SolverService plain(opt);
    opt.max_batch = max_batch;
    svc::SolverService coalescing(opt);
    svc::SolveRequest req;
    req.priority = svc::Priority::kBatch;
    req.lambda = 1e6;
    req.model = plain.register_model(m, {{1.0, 0.3}}, bc);
    const svc::SolveResponse a = plain.submit(req).get();
    req.model = coalescing.register_model(m, {{1.0, 0.3}}, bc);
    const svc::SolveResponse b = coalescing.submit(req).get();
    solo_identical = ok(a.status) && ok(b.status) &&
                     a.report.solution.size() == b.report.solution.size();
    for (std::size_t i = 0; solo_identical && i < a.report.solution.size(); ++i)
      solo_identical = a.report.solution[i] == b.report.solution[i];
  }
  reg.gauge("svc.solo_batch_identical")->set(solo_identical ? 1.0 : 0.0);

  // -------------------------------------------------------------------------
  // Coalesced variants and precisions: max_batch same-key Gropp requests, and
  // max_batch same-key fp32 requests, each on one worker whose leader holds
  // the dispatch open until they have all arrived. Every request shape rides
  // the one batched path, so each stream must form a dispatch of >= 2 and
  // every response must be ok.
  // -------------------------------------------------------------------------
  bool shapes_coalesced = true;
  if (max_batch > 1) {
    for (const bool fp32 : {false, true}) {
      svc::ServiceOptions opt = base;
      opt.workers = 1;
      opt.max_batch = max_batch;
      opt.batch_window = 5.0;
      svc::SolverService svc(opt);
      const svc::ModelId model = svc.register_model(m, {{1.0, 0.3}}, bc);
      std::vector<std::future<svc::SolveResponse>> futures;
      for (int i = 0; i < max_batch; ++i) {
        svc::SolveRequest req;
        req.model = model;
        req.priority = svc::Priority::kBatch;
        req.lambda = 1e6;
        req.load_scale = 1.0 + i;
        if (fp32) {
          req.precision = precond::Precision::kSingle;
        } else {
          req.variant = solver::CGVariant::kGropp;
        }
        futures.push_back(svc.submit(req));
      }
      for (auto& f : futures) {
        try {
          shapes_coalesced = ok(f.get().status) && shapes_coalesced;
        } catch (const std::exception& e) {
          std::cerr << "coalesced " << (fp32 ? "fp32" : "gropp") << " request threw: " << e.what()
                    << "\n";
          shapes_coalesced = false;
        }
      }
      const obs::Snapshot snap = svc.registry().snapshot();
      const obs::HistogramData* bs = snap.histogram("svc.batch_size");
      const double widest = bs ? bs->max : 0.0;
      shapes_coalesced = shapes_coalesced && widest >= 2.0;
      const std::string shape = fp32 ? "fp32" : "gropp";
      reg.gauge("svc.coalesced_" + shape + ".batch_size.max")->set(widest);
      std::cout << "coalesced " << shape << " requests: widest dispatch "
                << util::Table::fmt(widest, 0) << "/" << max_batch << "\n";
    }
  }

  bench::emit_json(reg, "service", argc, argv, {&table});
  const bool batch_formed = !max_batch_flag || max_batch_seen >= 2.0;
  if (!all_ok || !identical || !solo_identical || !batch_formed || !shapes_coalesced) {
    std::cerr << "\nservice smoke FAILED ("
              << (!identical         ? "warm solve != cold solve"
                  : !solo_identical   ? "solo solve != solve with coalescing enabled"
                  : !batch_formed     ? "no coalesced batch of >= 2 formed"
                  : !shapes_coalesced ? "Gropp or fp32 requests did not coalesce and converge"
                                      : "requests lost or failed")
              << ")\n";
    return 1;
  }
  std::cout << "\nservice smoke passed (no request lost, warm solve bit-identical to cold, "
               "solo solve bit-identical under coalescing, Gropp and fp32 requests coalesced)\n";
  return 0;
}
