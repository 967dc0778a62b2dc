#include "svc/service.hpp"

#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "contact/penalty.hpp"
#include "par/par.hpp"
#include "util/timer.hpp"

namespace geofem::svc {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0,
                     std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

const char* class_name(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "batch";
}

}  // namespace

std::string to_string(Priority p) { return class_name(p); }

SolverService::SolverService(ServiceOptions opt)
    : opt_(std::move(opt)),
      cache_(opt_.cache_capacity, opt_.cache_shards) {
  if (opt_.workers < 1) opt_.workers = 1;
  if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
  if (opt_.interactive_burst < 1) opt_.interactive_burst = 1;
  // The PDJDS plans revalue plan-owned DJDS storage in numeric(), so
  // vectorized plans must not be shared across in-flight solves: fall back
  // to one private cache per worker (still warm within each worker).
  if (opt_.solve.ordering != core::OrderingKind::kNatural) {
    worker_caches_.reserve(static_cast<std::size_t>(opt_.workers));
    for (int w = 0; w < opt_.workers; ++w)
      worker_caches_.push_back(
          std::make_unique<plan::PlanCache>(opt_.cache_capacity, std::size_t{1}));
  }
  registry_.gauge("svc.workers")->set(static_cast<double>(opt_.workers));
  registry_.gauge("svc.queue_capacity")->set(static_cast<double>(opt_.queue_capacity));
  threads_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int w = 0; w < opt_.workers; ++w) threads_.emplace_back([this, w] { worker_main(w); });
}

SolverService::~SolverService() {
  {
    std::lock_guard lock(mtx_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ModelId SolverService::register_model(const mesh::HexMesh& m,
                                      std::vector<fem::Material> materials,
                                      fem::BoundaryConditions bc) {
  Model model;
  model.base = fem::assemble_elasticity(m, materials);
  model.bc = std::move(bc);
  model.groups = m.contact_groups;
  model.sn = contact::build_supernodes(model.base.a.n, model.groups);
  std::lock_guard lock(models_mtx_);
  models_.push_back(std::move(model));
  registry_.gauge("svc.models")->set(static_cast<double>(models_.size()));
  return static_cast<ModelId>(models_.size() - 1);
}

std::future<SolveResponse> SolverService::submit(SolveRequest req) {
  {
    std::lock_guard lock(models_mtx_);
    if (req.model < 0 || static_cast<std::size_t>(req.model) >= models_.size())
      throw Error(StatusCode::kInvalidArgument, "svc::submit: unknown model id");
    if (!req.active_groups.empty() &&
        req.active_groups.size() != models_[static_cast<std::size_t>(req.model)].groups.size())
      throw Error(StatusCode::kInvalidArgument,
                  "svc::submit: active_groups size != model contact group count");
  }
  const Priority pri = req.priority;
  const auto cls = static_cast<std::size_t>(pri);
  Ticket t;
  t.req = std::move(req);
  t.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t.admitted = std::chrono::steady_clock::now();
  std::future<SolveResponse> fut = t.promise.get_future();

  registry_.counter(std::string("svc.submitted.") + class_name(pri))->add(1);
  std::unique_lock lock(mtx_);
  ++counts_.submitted;
  if (stopping_ || queues_[cls].size() >= opt_.queue_capacity) {
    // Backpressure: resolve immediately, never queue unboundedly. The caller
    // sees kRejected and decides whether to retry, shed, or slow down.
    ++counts_.rejected;
    lock.unlock();
    registry_.counter(std::string("svc.rejected.") + class_name(pri))->add(1);
    SolveResponse resp;
    resp.id = t.id;
    resp.priority = pri;
    resp.status = SolveStatus::kRejected;
    resp.total_seconds = seconds_since(t.admitted, std::chrono::steady_clock::now());
    t.promise.set_value(std::move(resp));
    return fut;
  }
  queues_[cls].push_back(std::move(t));
  const std::size_t depth = queues_[cls].size();
  if (depth > depth_max_[cls]) depth_max_[cls] = depth;
  const std::size_t depth_max = depth_max_[cls];
  lock.unlock();
  registry_.counter(std::string("svc.accepted.") + class_name(pri))->add(1);
  registry_.gauge(std::string("svc.queue_depth.") + class_name(pri))
      ->set(static_cast<double>(depth));
  registry_.gauge(std::string("svc.queue_depth_max.") + class_name(pri))
      ->set(static_cast<double>(depth_max));
  cv_work_.notify_one();
  return fut;
}

namespace {

/// Coalescing key: requests solving the SAME matrix (model, penalty, contact
/// state) with the same factor precision and CG variant may share one
/// batched solve; load_scale and tolerance are per-column deltas.
bool same_batch_key(const SolveRequest& a, const SolveRequest& b, const core::SolveConfig& base) {
  return a.model == b.model && a.lambda == b.lambda && a.active_groups == b.active_groups &&
         a.precision.value_or(base.precision) == b.precision.value_or(base.precision) &&
         a.variant.value_or(base.cg.variant) == b.variant.value_or(base.cg.variant);
}

}  // namespace

bool SolverService::next_batch(std::vector<Ticket>& out) {
  out.clear();
  std::unique_lock lock(mtx_);
  cv_work_.wait(lock, [this] {
    return stopping_ || !queues_[0].empty() || !queues_[1].empty();
  });
  const bool has_i = !queues_[0].empty();
  const bool has_b = !queues_[1].empty();
  if (!has_i && !has_b) return false;  // stopping and drained
  // Starvation-free priority: interactive first, but after
  // `interactive_burst` consecutive interactive dispatches with batch work
  // waiting, one batch request is forced through (bounded bypass count, so
  // batch latency is bounded by burst * interactive service time).
  std::size_t cls;
  if (has_i && (!has_b || interactive_streak_ < opt_.interactive_burst)) {
    cls = 0;
    interactive_streak_ = has_b ? interactive_streak_ + 1 : 0;
  } else {
    cls = 1;
    interactive_streak_ = 0;
  }
  out.push_back(std::move(queues_[cls].front()));
  queues_[cls].pop_front();
  ++in_flight_;  // leader counted immediately: drain() must not fire mid-batch

  bool window_timeout = false;
  if (opt_.max_batch > 1) {
    const auto max_batch = static_cast<std::size_t>(opt_.max_batch);
    // Pull every queued same-key request (both classes, admission order
    // within each) up to max_batch.
    auto harvest = [&] {
      for (auto& q : queues_) {
        for (auto it = q.begin(); it != q.end() && out.size() < max_batch;) {
          if (same_batch_key(out.front().req, it->req, opt_.solve)) {
            out.push_back(std::move(*it));
            it = q.erase(it);
            ++in_flight_;
          } else {
            ++it;
          }
        }
      }
    };
    harvest();
    // Batch-class leaders may hold the dispatch open briefly to let more
    // matching requests arrive; interactive leaders never wait.
    if (out.size() < max_batch && out.front().req.priority == Priority::kBatch &&
        opt_.batch_window > 0.0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(opt_.batch_window));
      while (out.size() < max_batch && !stopping_) {
        if (cv_work_.wait_until(lock, deadline) == std::cv_status::timeout) {
          harvest();
          window_timeout = out.size() < max_batch;
          break;
        }
        harvest();
      }
    }
  }

  const std::size_t depth_i = queues_[0].size();
  const std::size_t depth_b = queues_[1].size();
  lock.unlock();
  registry_.gauge("svc.queue_depth.interactive")->set(static_cast<double>(depth_i));
  registry_.gauge("svc.queue_depth.batch")->set(static_cast<double>(depth_b));
  if (opt_.max_batch > 1) {
    registry_.histogram("svc.batch_size")->record(static_cast<double>(out.size()));
    if (out.size() > 1)
      registry_.counter("svc.coalesce.hit")->add(static_cast<std::uint64_t>(out.size() - 1));
    if (window_timeout) registry_.counter("svc.coalesce.window_timeout")->add(1);
  }
  return true;
}

void SolverService::worker_main(int wid) {
  // Attach the service registry for the thread's lifetime so svc-level spans
  // and the plan cache's hit/miss counters land in it. solve_system nests its
  // own Attach of the same registry via SolveConfig::registry.
  obs::Attach attach(&registry_);
  // The per-dispatch copy, penalty and boundary conditions run outside the
  // solve's own team scope; size them by the solve's team too, so a worker
  // never opens a wider team than its solves.
  par::TeamScope team(opt_.solve.threads);
  plan::PlanCache* cache =
      worker_caches_.empty() ? &cache_ : worker_caches_[static_cast<std::size_t>(wid)].get();
  // Per-worker scratch for the request-path copies (matrix values, RHS):
  // vector copy-assignment reuses the allocation, so the steady state pays a
  // memcpy per request instead of a multi-MB malloc/free churn.
  fem::System scratch;
  std::vector<Ticket> batch;
  while (next_batch(batch)) process_batch(std::move(batch), cache, scratch);
}

void SolverService::process_batch(std::vector<Ticket> batch, plan::PlanCache* cache,
                                  fem::System& sys) {
  const std::size_t k = batch.size();
  const auto dequeued = std::chrono::steady_clock::now();
  for (const auto& t : batch)
    registry_.histogram(std::string("svc.queue_wait.") + class_name(t.req.priority))
        ->record(seconds_since(t.admitted, dequeued));

  // Counts ticket i BEFORE its future resolves: a caller who has seen every
  // future resolve must never read stale counts().
  std::vector<bool> delivered(k, false);
  const auto account = [&](std::size_t i, bool failed) {
    if (failed)
      registry_.counter(std::string("svc.failed.") + class_name(batch[i].req.priority))->add(1);
    std::lock_guard lock(mtx_);
    ++counts_.completed;
    if (failed) ++counts_.failed;
    delivered[i] = true;
  };
  const auto fail = [&](std::size_t i, std::exception_ptr err) {
    account(i, true);
    batch[i].promise.set_exception(std::move(err));
  };
  try {
    const std::size_t span = registry_.span_begin("svc.request");
    // models_ is a deque (stable addresses) and only grows, so holding the
    // lock just for the lookup is enough.
    const Model* model_ptr;
    {
      std::lock_guard lock(models_mtx_);
      model_ptr = &models_[static_cast<std::size_t>(batch.front().req.model)];
    }
    const Model& model = *model_ptr;
    const SolveRequest& lead = batch.front().req;

    // Per-dispatch deltas on a copy of the registered base system: one copy
    // + penalty for the whole batch (the coalescing key guarantees every
    // ticket wants these exact matrix values), then one elimination sweep
    // producing all k right-hand sides. The copy is the numeric cost every
    // dispatch pays; the symbolic set-up is what the shared plan cache
    // amortizes away.
    sys.a = model.base.a;
    sys.b = model.base.b;
    if (lead.active_groups.empty()) {
      contact::add_penalty(sys.a, model.groups, lead.lambda);
    } else {
      std::vector<std::vector<int>> active;
      active.reserve(model.groups.size());
      for (std::size_t g = 0; g < model.groups.size(); ++g)
        if (lead.active_groups[g]) active.push_back(model.groups[g]);
      contact::add_penalty(sys.a, active, lead.lambda);
    }
    core::SolveConfig cfg = opt_.solve;
    cfg.penalty = lead.lambda;
    cfg.plan_cache = cache;
    cfg.registry = &registry_;  // re-entrant session entry
    cfg.precision = lead.precision.value_or(cfg.precision);
    cfg.cg.variant = lead.variant.value_or(cfg.cg.variant);
    std::vector<double> scales(k);
    for (std::size_t i = 0; i < k; ++i) scales[i] = batch[i].req.load_scale;
    auto cols = fem::apply_boundary_conditions_multi(sys, model.bc, scales);

    // A column the CG engine refuses (a zero right-hand side) fails its own
    // ticket with the engine's error; the others solve as if it had never
    // been coalesced.
    std::vector<std::size_t> solve;
    std::vector<std::vector<double>> rhs;
    std::vector<double> tols;
    for (std::size_t i = 0; i < k; ++i) {
      try {
        solver::require_rhs(
            std::sqrt(std::inner_product(cols[i].begin(), cols[i].end(), cols[i].begin(), 0.0)));
      } catch (...) {
        fail(i, std::current_exception());
        continue;
      }
      solve.push_back(i);
      rhs.push_back(std::move(cols[i]));
      tols.push_back(batch[i].req.tolerance > 0.0 ? batch[i].req.tolerance : cfg.cg.tolerance);
    }
    if (solve.empty()) {
      registry_.span_end(span);
    } else {
      util::Timer solve_timer;
      std::vector<core::SolveReport> reports =
          core::solve_system_batched(sys, model.sn, cfg, rhs, tols);
      const double solve_seconds = solve_timer.seconds();
      registry_.span_end(span);
      registry_.histogram("svc.solve_seconds")->record(solve_seconds);
      // One plan consult served the whole dispatch: count the reuse once.
      if (reports.front().plan_reused)
        registry_.counter(std::string("svc.plan_reused.") + class_name(lead.priority))->add(1);

      for (std::size_t j = 0; j < solve.size(); ++j) {
        Ticket& t = batch[solve[j]];
        SolveResponse resp;
        resp.id = t.id;
        resp.priority = t.req.priority;
        resp.queue_seconds = seconds_since(t.admitted, dequeued);
        resp.report = std::move(reports[j]);
        resp.status = resp.report.status;
        if (!opt_.keep_solutions) {
          resp.report.solution.clear();
          resp.report.solution.shrink_to_fit();
        }
        resp.total_seconds = seconds_since(t.admitted, std::chrono::steady_clock::now());
        const char* cls = class_name(t.req.priority);
        registry_.histogram(std::string("svc.latency.") + cls)->record(resp.total_seconds);
        registry_.counter(std::string("svc.completed.") + cls)->add(1);
        account(solve[j], !ok(resp.status));
        t.promise.set_value(std::move(resp));
      }
    }
  } catch (...) {
    // A throwing solve (factorization failure without resilience, stale
    // plan, bad request state) must not kill the worker: the exception fans
    // out through every still-unresolved future, each accounted as failed.
    for (std::size_t i = 0; i < k; ++i)
      if (!delivered[i]) fail(i, std::current_exception());
  }
  {
    std::lock_guard lock(mtx_);
    in_flight_ -= k;
    if (in_flight_ == 0 && queues_[0].empty() && queues_[1].empty()) cv_drain_.notify_all();
  }
}

void SolverService::drain() {
  std::unique_lock lock(mtx_);
  cv_drain_.wait(lock,
                 [this] { return in_flight_ == 0 && queues_[0].empty() && queues_[1].empty(); });
}

SolverService::Counts SolverService::counts() const {
  std::lock_guard lock(mtx_);
  return counts_;
}

void SolverService::publish_stats() {
  if (worker_caches_.empty()) {
    cache_.publish(registry_);
    return;
  }
  // Vectorized orderings: per-worker caches. Publish each worker's view and
  // fold the totals into the shared plan.cache.* gauges.
  plan::CacheStats total;
  for (std::size_t w = 0; w < worker_caches_.size(); ++w) {
    worker_caches_[w]->publish(registry_, "plan.cache.worker." + std::to_string(w));
    total += worker_caches_[w]->stats();
  }
  registry_.gauge("plan.cache.hits")->set(static_cast<double>(total.hits));
  registry_.gauge("plan.cache.misses")->set(static_cast<double>(total.misses));
  registry_.gauge("plan.cache.evictions")->set(static_cast<double>(total.evictions));
  registry_.gauge("plan.cache.entries")->set(static_cast<double>(total.entries));
}

}  // namespace geofem::svc
