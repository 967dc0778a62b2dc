// svc_mixed: svc::SolverService with 2 workers x 1 thread on the in-L2
// simple block model, driven by one client thread as a closed loop with 8
// requests outstanding. Three quarters are batch-priority requests sharing
// one coalescing key (λ = 1e6, load scale 2^k), one quarter interactive
// requests with other λ values and dropped contact groups, which never
// coalesce.

#include <chrono>
#include <future>
#include <memory>

#include "mesh/simple_block.hpp"
#include "par/par.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace pb {

namespace gf = geofem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kWorkers = 2;
constexpr std::size_t kOutstanding = 8;
constexpr double kBatchLambda = 1e6;
constexpr double kInteractiveLambdas[] = {1e4, 1e5, 1e7, 1e8};
constexpr int kPatterns = 3;
constexpr int kInteractiveKinds = 4 * kPatterns;
constexpr int kScaleMin = -2, kScaleMax = 2;
constexpr int kKinds = kInteractiveKinds + (kScaleMax - kScaleMin + 1);
/// CG iterations per request kind recorded on the seed code: the twelve
/// interactive (λ, dropped-groups) variants, then the batch requests (one
/// count: a power-of-two load scale leaves iterations unchanged).
constexpr int kRecordedInteractive[kInteractiveKinds] = {38, 36, 42, 38, 36, 42,
                                                         38, 36, 42, 38, 36, 42};
constexpr int kRecordedBatch = 35;
constexpr int kWarmupRequests = 48;

gf::mesh::SimpleBlockParams params(bool tiny) {
  // 6/6/4/6/6: 2,835 DOF, matrix well inside one core's L2
  return tiny ? gf::mesh::SimpleBlockParams{3, 3, 2, 3, 3}
              : gf::mesh::SimpleBlockParams{6, 6, 4, 6, 6};
}

gf::svc::ServiceOptions service_options() {
  gf::svc::ServiceOptions o;
  o.workers = kWorkers;
  o.solve.threads = 1;
  o.max_batch = 4;
  o.batch_window = 0.005;
  o.keep_solutions = true;  // the client checks every solution
  return o;
}

bool interactive(int kind) { return kind < kInteractiveKinds; }

/// Contact-state delta of an interactive pattern: drop every 2nd group,
/// every 3rd group, or the first half.
std::vector<std::uint8_t> active_groups(int pattern, std::size_t groups) {
  std::vector<std::uint8_t> a(groups, 1);
  for (std::size_t g = 0; g < groups; ++g) {
    if (pattern == 0 && g % 2 == 1) a[g] = 0;
    if (pattern == 1 && g % 3 == 2) a[g] = 0;
    if (pattern == 2 && g < groups / 2) a[g] = 0;
  }
  return a;
}

gf::svc::SolveRequest make_request(int kind, std::size_t groups) {
  gf::svc::SolveRequest r;
  if (interactive(kind)) {
    r.priority = gf::svc::Priority::kInteractive;
    r.lambda = kInteractiveLambdas[kind / kPatterns];
    r.active_groups = active_groups(kind % kPatterns, groups);
  } else {
    r.priority = gf::svc::Priority::kBatch;
    r.lambda = kBatchLambda;
    r.load_scale = std::ldexp(1.0, kScaleMin + (kind - kInteractiveKinds));
  }
  return r;
}

/// The seeded request stream: one interactive request in four.
int next_kind(Rng& rng) {
  if (rng.below(4) == 0) return rng.below(kInteractiveKinds);
  return kInteractiveKinds + rng.below(kScaleMax - kScaleMin + 1);
}

/// The benchmark's own copy of every request kind's system, for the
/// true-residual check.
struct References {
  std::vector<gf::fem::System> sys;

  References(const gf::mesh::HexMesh& m, const gf::fem::BoundaryConditions& bc) {
    const gf::fem::System base = gf::fem::assemble_elasticity(m, {{1.0, 0.3}});
    sys.resize(kKinds);
    for (int k = 0; k < kKinds; ++k) {
      const auto req = make_request(k, m.contact_groups.size());
      std::vector<std::vector<int>> groups;
      for (std::size_t g = 0; g < m.contact_groups.size(); ++g)
        if (req.active_groups.empty() || req.active_groups[g]) groups.push_back(m.contact_groups[g]);
      make_system(base, groups, req.lambda, bc, req.load_scale, sys[static_cast<std::size_t>(k)]);
    }
  }
};

struct Done {
  long seq;
  int kind;
  Clock::time_point submitted, ready;
  gf::svc::SolveResponse resp;
};

/// What a timed request leaves behind (responses themselves are dropped:
/// their reports carry per-solve loop statistics).
struct Sample {
  long seq;
  int kind;
  Clock::time_point submitted, ready;
  double queue_s, total_s, setup_s, solve_s;
};

/// Check one response against the correctness gate.
bool check(Result& res, const References& refs, int kind, const gf::svc::SolveResponse& r,
           bool tiny) {
  const auto& ref = refs.sys[static_cast<std::size_t>(kind)];
  const int recorded = interactive(kind) ? kRecordedInteractive[kind] : kRecordedBatch;
  const bool iters_ok = tiny || r.report.cg.iterations == recorded;
  bool ok = r.accepted() && gf::ok(r.status) && iters_ok;
  ResidualCheck rc;
  if (ok) {
    rc = true_residual(ref.a, ref.b, r.report.solution, 1e-8);
    ok = rc.ok();
  }
  res.op(ok, "svc kind=" + std::to_string(kind) + " status=" + gf::to_string(r.status) +
                 " iterations=" + std::to_string(r.report.cg.iterations) +
                 " true_residual=" + std::to_string(rc.rel) + " bound=" + std::to_string(rc.bound));
  return ok;
}

/// Closed loop: keeps kOutstanding requests in flight while `more()` holds,
/// hands every completion to `done`, and returns once nothing is in flight.
/// Readiness is polled, so a completion is seen within ~100 us.
template <class More, class OnDone>
void closed_loop(gf::svc::SolverService& svc, std::size_t groups, Rng& rng, More more,
                 OnDone done) {
  struct Pending {
    std::future<gf::svc::SolveResponse> f;
    long seq;
    int kind;
    Clock::time_point submitted;
  };
  std::vector<Pending> out;
  long seq = 0;
  auto submit = [&] {
    const int kind = next_kind(rng);
    auto req = make_request(kind, groups);
    const auto t = Clock::now();
    out.push_back(Pending{svc.submit(std::move(req)), seq++, kind, t});
  };
  while (out.size() < kOutstanding && more()) submit();
  while (!out.empty()) {
    bool any = false;
    for (std::size_t i = 0; i < out.size();) {
      if (out[i].f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const auto t = Clock::now();
      Done d{out[i].seq, out[i].kind, out[i].submitted, t, {}};
      try {
        d.resp = out[i].f.get();
      } catch (const std::exception& e) {
        d.resp.status = gf::SolveStatus::kFactorizationFailed;
        note(std::string("svc request threw: ") + e.what());
      }
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(i));
      done(d);
      any = true;
      if (more()) submit();
    }
    if (!any && !out.empty()) out.front().f.wait_for(std::chrono::microseconds(100));
  }
}

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A warmed-up closed-loop phase: kWarmupRequests untimed completions, then
/// `seconds` timed; completions inside the timed window are `timed`.
struct Phase {
  std::vector<Sample> timed;
  double wall = 0.0;
};

Phase run_phase(gf::svc::SolverService& svc, std::size_t groups, const References& refs,
                Rng& rng, double seconds, Result& res, bool tiny) {
  Phase ph;
  long completed = 0;  // the timed window opens at the kWarmupRequests-th
  bool timing = false;
  Clock::time_point t_start, t_end = Clock::time_point::max();
  closed_loop(
      svc, groups, rng, [&] { return Clock::now() < t_end; },
      [&](const Done& d) {
        check(res, refs, d.kind, d.resp, tiny);
        if (timing && d.ready <= t_end)
          ph.timed.push_back(Sample{d.seq, d.kind, d.submitted, d.ready, d.resp.queue_seconds,
                                    d.resp.total_seconds, d.resp.report.setup_seconds,
                                    d.resp.report.cg.solve_seconds});
        if (!timing && ++completed >= kWarmupRequests) {
          timing = true;
          t_start = Clock::now();
          t_end = t_start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
        }
      });
  ph.wall = secs(t_start, t_end);
  return ph;
}

std::vector<double> latencies_ms(const std::vector<Sample>& v, int cls) {
  std::vector<double> out;
  for (const Sample& d : v)
    if (cls < 0 || interactive(d.kind) == (cls == 0)) out.push_back(secs(d.submitted, d.ready) * 1e3);
  return out;
}

struct Setup {
  std::unique_ptr<gf::svc::SolverService> svc;
  gf::svc::SolveResponse first;  ///< the cold request's response
};

/// The cold request of a set-up: a batch request at load scale 1.
constexpr int kColdKind = kInteractiveKinds - kScaleMin;

/// Cold set-up: mesh, service construction, register_model and one cold
/// request to a ready future.
Setup cold_setup(bool tiny) {
  Setup s;
  const gf::mesh::HexMesh mesh = gf::mesh::simple_block(params(tiny));
  s.svc = std::make_unique<gf::svc::SolverService>(service_options());
  // Library telemetry off: the service always records spans into its own
  // registry, and an unbounded span log would tie memory and time to the
  // request count. Counters and histograms stay on.
  s.svc->registry().set_span_capacity(0);
  (void)s.svc->register_model(mesh, {{1.0, 0.3}}, simple_block_bc(mesh));  // model 0
  s.first = s.svc->submit(make_request(kColdKind, mesh.contact_groups.size())).get();
  return s;
}

}  // namespace

void svc_run(const Options& opt, Result& res) {
  // The client thread's own library calls (residual checks) run single
  // threaded, so the process stays at 2 workers + 1 client.
  gf::par::TeamScope team(1);
  const gf::mesh::HexMesh m0 = gf::mesh::simple_block(params(opt.tiny));
  const References refs(m0, simple_block_bc(m0));

  // Set-up: the median of cold set-ups, half before and half after the timed
  // phase, so that it samples the whole run.
  std::vector<double> setups;
  Setup s;
  auto cold_setups = [&](int n) {
    for (int k = 0; k < n; ++k) {
      s = Setup{};  // joins the previous service's workers first
      const double t0 = now_s();
      s = cold_setup(opt.tiny);
      setups.push_back(now_s() - t0);
      check(res, refs, kColdKind, s.first, opt.tiny);
    }
  };
  cold_setups(8);
  note("svc_mixed: " + std::to_string(m0.num_dof()) + " DOF, " +
       std::to_string(m0.contact_groups.size()) + " contact groups, " +
       std::to_string(kWorkers) + " workers, " + std::to_string(kOutstanding) + " outstanding");

  Rng rng(opt.seed);
  const Phase ph = run_phase(*s.svc, m0.contact_groups.size(), refs, rng, opt.seconds, res,
                             opt.tiny);
  // `iterations`: one untimed request of every kind, in turn, so the sum is
  // the same for every seed.
  long iterations = 0;
  for (int k = 0; k < kKinds; ++k) {
    const auto r = s.svc->submit(make_request(k, m0.contact_groups.size())).get();
    check(res, refs, k, r, opt.tiny);
    iterations += r.report.cg.iterations;
  }
  const auto all = latencies_ms(ph.timed, -1);
  const auto snap = s.svc->registry().snapshot();
  const auto* occ = snap.histogram("svc.batch_size");
  note("svc_mixed: " + std::to_string(all.size()) + " timed requests (" +
       std::to_string(latencies_ms(ph.timed, 0).size()) + " interactive), mean batch " +
       std::to_string(occ ? occ->mean() : 0.0));
  cold_setups(8);
  res.metric("setup_s", median(setups), "s");
  res.metric("latency_p50_ms", median(all), "ms");
  res.metric("throughput_per_s", static_cast<double>(all.size()) / ph.wall, "1/s");
  res.metric("iterations", static_cast<double>(iterations), "count");
  res.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void svc_trace(const Options& opt, double seconds, bool named, Trace& tr, Result& res) {
  gf::par::TeamScope team(1);  // as in svc_run
  // Set-up layers, timed around the same calls the service makes on
  // register_model and per request.
  const int setup_op = tr.new_op();
  BaseModel m0;
  {
    Scoped root(&tr, "setup", setup_op, -1);
    m0 = build_model([&] { return gf::mesh::simple_block(params(opt.tiny)); }, simple_block_bc,
                     kBatchLambda, 1.0, &tr, setup_op, root.idx());
  }
  if (named) {
    res.metric("mesh.generate_s", tr.durations_ms("mesh.generate", setup_op)[0] * 1e-3, "s");
    res.metric("fem.assemble_s", tr.durations_ms("fem.assemble", setup_op)[0] * 1e-3, "s");
    res.metric("contact.penalty_s", tr.durations_ms("contact.penalty", setup_op)[0] * 1e-3, "s");
  }
  const References refs(m0.mesh, m0.bc);
  Setup s = cold_setup(opt.tiny);
  check(res, refs, kColdKind, s.first, opt.tiny);
  const std::size_t groups = m0.mesh.contact_groups.size();
  Rng rng(opt.seed);

  // One phase, run exactly as in svc_run. The request spans are built after
  // it from the client's submit/ready times and the response's own queue,
  // set-up and solve seconds, so tracing adds nothing to any request.
  auto& reg = s.svc->registry();
  const auto before = reg.snapshot();
  const auto counts_before = s.svc->counts();
  const Phase ph = run_phase(*s.svc, groups, refs, rng, seconds, res, opt.tiny);
  const auto after = reg.snapshot();
  const auto counts_after = s.svc->counts();

  auto us = [&](Clock::time_point t) { return tr.us_at(t); };
  std::vector<int> roots;
  const double record_t0 = now_s();
  for (const Sample& d : ph.timed) {
    const int op = tr.new_op();
    const int tid = static_cast<int>(d.seq % static_cast<long>(kOutstanding)) + 1;
    const double t0 = us(d.submitted), total = us(d.ready) - t0;
    const double q = d.queue_s * 1e6, su = d.setup_s * 1e6, so = d.solve_s * 1e6;
    const int root = tr.add("svc.request", op, -1, t0, total, tid);
    tr.add("svc.queue_wait", op, root, t0, q, tid);
    tr.add("svc.setup", op, root, t0 + q, su, tid);
    tr.add("solver.solve", op, root, t0 + q + su, so, tid);
    roots.push_back(root);
  }
  const double record_s = now_s() - record_t0;
  std::vector<double> queue_ms, service_ms, solve_ms, setup_ms, unattributed;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const Sample& d = ph.timed[i];
    queue_ms.push_back(d.queue_s * 1e3);
    service_ms.push_back((d.total_s - d.queue_s) * 1e3);
    solve_ms.push_back(d.solve_s * 1e3);
    setup_ms.push_back(d.setup_s * 1e3);
    unattributed.push_back(tr.self_ms(roots[i]));
  }

  auto delta_hist = [&](const char* name, bool want_sum) {
    const auto* a = after.histogram(name);
    const auto* b = before.histogram(name);
    const double va = a ? (want_sum ? a->sum : static_cast<double>(a->count)) : 0.0;
    const double vb = b ? (want_sum ? b->sum : static_cast<double>(b->count)) : 0.0;
    return va - vb;
  };
  auto delta_counter = [&](const char* name) {
    const auto* a = after.counter(name);
    const auto* b = before.counter(name);
    return static_cast<double>((a ? *a : 0) - (b ? *b : 0));
  };
  const double dispatches = delta_hist("svc.batch_size", false);
  const double completed = static_cast<double>(counts_after.completed - counts_before.completed);
  const auto st = s.svc->plan_cache().stats();

  res.metric("svc.queue_wait_ms", median(queue_ms), "ms");
  res.metric("svc.service_ms", median(service_ms), "ms");
  res.metric("svc.setup_ms", median(setup_ms), "ms");
  res.metric("solver.solve_ms", median(solve_ms), "ms");
  res.metric("svc.batch_occupancy", delta_hist("svc.batch_size", true) / dispatches, "requests");
  res.metric("svc.coalesce_hit_frac", delta_counter("svc.coalesce.hit") / completed, "ratio");
  res.metric("svc.window_timeout_frac", delta_counter("svc.coalesce.window_timeout") / dispatches,
             "ratio");
  res.metric("svc.plan_hit_rate",
             static_cast<double>(st.hits) / static_cast<double>(st.hits + st.misses), "ratio");
  double pct = 0.0;
  res.metric("svc.latency_tail_ms", tail_percentile(latencies_ms(ph.timed, -1), &pct), "ms");
  res.metric("svc.latency_tail_pct", pct, "%");
  res.metric("svc.interactive_p50_ms", median(latencies_ms(ph.timed, 0)), "ms");
  res.metric("svc.interactive_p95_ms", percentile(latencies_ms(ph.timed, 0), 0.95), "ms");
  if (named) {
    res.metric("unattributed_ms", median(unattributed), "ms");
    // What tracing costs this process: the client time spent recording the
    // spans, as a share of the phase. None of it falls inside a request.
    res.metric("obs.overhead_frac", record_s / ph.wall, "ratio");
  }
  note("svc_mixed traced: " + std::to_string(ph.timed.size()) + " requests, spans recorded in " +
       std::to_string(record_s * 1e3) + " ms");
}

}  // namespace pb
