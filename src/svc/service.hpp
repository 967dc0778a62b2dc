#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/geofem.hpp"
#include "obs/registry.hpp"
#include "plan/cache.hpp"

/// geofem::svc — solver-as-a-service (DESIGN.md §5g).
///
/// The paper's workload is "one mesh family, many solves": every ALM cycle,
/// every λ step and every contact-state update re-solves a system whose
/// *graph* never changes. SolverService is the long-lived in-process server
/// that monetizes that shape: models (mesh + materials + boundary conditions)
/// are registered once, requests carry only the per-solve deltas (λ, load
/// scale, active contact groups), and the expensive symbolic set-up is shared
/// across all sessions through a sharded plan::PlanCache. Admission is
/// bounded (backpressure via SolveStatus::kRejected, never an unbounded
/// queue) and two priority classes — interactive and batch — are scheduled
/// starvation-free.
namespace geofem::svc {

/// Priority class of a request. Interactive requests are dispatched first,
/// but batch cannot starve: after ServiceOptions::interactive_burst
/// consecutive interactive dispatches while batch work waits, one batch
/// request is served (weighted round-robin with a fixed weight).
enum class Priority { kInteractive = 0, kBatch = 1 };
inline constexpr int kNumPriorities = 2;

[[nodiscard]] std::string to_string(Priority p);

/// Handle of a registered model (mesh family). Dense, starting at 0.
using ModelId = int;

/// One solve request: a model handle plus the per-solve deltas. Everything
/// structure-relevant (mesh, supernode map, preconditioner, ordering) comes
/// from the model and the service's base SolveConfig, so requests on one
/// model share one plan fingerprint and hit the plan cache warm.
struct SolveRequest {
  ModelId model = 0;
  Priority priority = Priority::kBatch;
  double lambda = 1e6;      ///< contact penalty for the active groups
  double load_scale = 1.0;  ///< multiplies every boundary load / body force
  /// Contact-state delta: active_groups[g] == 0 drops group g's penalty
  /// blocks to zero *values* (the sparsity pattern — and hence the plan
  /// fingerprint — is unchanged, so toggling contact state stays warm).
  /// Empty means every group is active.
  std::vector<std::uint8_t> active_groups;
  /// Optional per-request tolerance override; <= 0 uses the service default.
  double tolerance = 0.0;
  /// Optional stored-precision override for this request's preconditioner
  /// factors; unset uses the service's base SolveConfig::precision. fp32
  /// requests carry the usual automatic fp64 re-set-up on stagnation or
  /// narrowing breakdown (SolveReport::precision_fallbacks). Precision keys
  /// the plan fingerprint, so mixed-precision request streams on one model
  /// hold two plans in the shared cache, both warm; it also keys request
  /// coalescing.
  std::optional<precond::Precision> precision;
  /// Optional CG-variant override (classic / Gropp / pipelined); unset uses
  /// the service's base SolveConfig::cg.variant. Variants are a pure
  /// arithmetic choice — they do not key the plan fingerprint, so mixing
  /// variants on one model stays warm in the plan cache — but they key
  /// request coalescing.
  std::optional<solver::CGVariant> variant;
};

/// Outcome of one request. For accepted requests `report` is the full
/// core::SolveReport (solution, iterations, plan reuse, timings); a rejected
/// request never reaches a worker and only carries status/queue bookkeeping.
struct SolveResponse {
  std::uint64_t id = 0;
  Priority priority = Priority::kBatch;
  SolveStatus status = SolveStatus::kRejected;
  double queue_seconds = 0.0;  ///< admission -> dequeue by a worker
  double total_seconds = 0.0;  ///< admission -> completion (or rejection)
  core::SolveReport report;

  [[nodiscard]] bool accepted() const { return status != SolveStatus::kRejected; }
};

struct ServiceOptions {
  int workers = 4;  ///< worker threads (each runs whole solves)
  /// Bounded admission queue per priority class; a submit() into a full
  /// queue resolves immediately with SolveStatus::kRejected (backpressure).
  std::size_t queue_capacity = 64;
  /// Starvation guard: consecutive interactive dispatches allowed while a
  /// batch request waits before one batch request is forced through.
  int interactive_burst = 4;
  std::size_t cache_capacity = 32;  ///< shared plan cache: resident plans
  std::size_t cache_shards = 8;     ///< ... split over this many shards
  /// Base solver configuration for every request (preconditioner, ordering,
  /// threads per solve, CG budget). The per-request deltas never change the
  /// plan fingerprint. plan_cache/registry fields are overwritten by the
  /// service; use_plan_cache=false benchmarks the cold path.
  core::SolveConfig solve;
  /// Drop each response's solution vector after the solve (latency benches
  /// at scale; keep true for bit-identity checks).
  bool keep_solutions = true;
  /// Request coalescing (DESIGN.md §5k). A dispatching worker scans both
  /// queues for requests with its leader's coalescing key — (model, lambda,
  /// active_groups, precision, variant), i.e. the same matrix values, plan
  /// fingerprint and CG arithmetic — and solves up to max_batch of them as
  /// ONE batched multi-RHS solve (core::solve_system_batched: one system
  /// copy, one set-up per ladder attempt, one SpMM + one preconditioner walk
  /// per CG iteration for all columns). Coalesced requests may differ in
  /// load_scale and tolerance; each column keeps its own variant retry,
  /// fp64 re-set-up and resilience rungs. Coalescing pulls matching
  /// followers out of FIFO order (they ride the leader's dispatch). 1
  /// disables coalescing. Every dispatch, of one request or more, runs the
  /// same path; a dispatch of one is bit-identical to solve_system.
  int max_batch = 1;
  /// With coalescing on and fewer than max_batch matching requests queued: a
  /// worker whose leader is Priority::kBatch may wait up to this many
  /// seconds for more matching arrivals before dispatching. Interactive
  /// leaders never wait (latency first). 0 = dispatch what is there now.
  double batch_window = 0.0;
};

/// Long-lived in-process solver service. Thread-safe: submit() may be called
/// from any thread, including concurrently with drain(). The destructor
/// drains accepted work, then joins the workers.
///
/// Telemetry lands in the service-owned registry() (workers enter solves
/// through the re-entrant core::SolveConfig::registry session entry):
///   histograms svc.latency.{interactive,batch}   admission -> completion (s)
///              svc.queue_wait.{interactive,batch} admission -> dequeue (s)
///              svc.solve_seconds                  worker solve time (s)
///              svc.batch_size                     columns per dispatch (when
///                                                 max_batch > 1; 1 = solo)
///   counters   svc.submitted/accepted/rejected/completed/failed.<class>
///              svc.coalesce.hit            requests that rode another's dispatch
///              svc.coalesce.window_timeout batch windows that expired unfilled
///   gauges     svc.queue_depth.<class> (current), svc.queue_depth_max.<class>
/// plan-cache hit/miss/eviction/occupancy gauges are refreshed by
/// publish_stats().
class SolverService {
 public:
  explicit SolverService(ServiceOptions opt = ServiceOptions{});
  ~SolverService();
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Register a mesh family: assembles the elastic stiffness once (the
  /// request path only copies it and applies the deltas). Not concurrent
  /// with submit() of requests naming the returned id (normal use: register
  /// everything up front).
  ModelId register_model(const mesh::HexMesh& m, std::vector<fem::Material> materials,
                         fem::BoundaryConditions bc);

  /// Admission control: bounded, non-blocking. The returned future resolves
  /// when a worker completes the solve — or immediately, with
  /// SolveStatus::kRejected, when the request's class queue is full.
  std::future<SolveResponse> submit(SolveRequest req);

  /// Block until every accepted request has completed.
  void drain();

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }
  [[nodiscard]] plan::PlanCache& plan_cache() { return cache_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }
  [[nodiscard]] const ServiceOptions& options() const { return opt_; }

  /// Monotonic admission totals (never reset; survive drain()).
  struct Counts {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;  ///< completed with !ok(status); subset of completed
  };
  [[nodiscard]] Counts counts() const;

  /// Refresh the plan-cache gauges (plan.cache.*) in registry().
  void publish_stats();

 private:
  struct Model {
    fem::System base;  ///< elasticity only — no penalty, no BCs
    fem::BoundaryConditions bc;
    std::vector<std::vector<int>> groups;
    contact::Supernodes sn;
  };
  struct Ticket {
    SolveRequest req;
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point admitted;
    std::promise<SolveResponse> promise;
  };


  void worker_main(int wid);
  /// Scheduling policy + coalescing window; false = stopping. `out` receives
  /// the leader (chosen by the existing priority policy) plus up to
  /// max_batch - 1 same-key followers.
  bool next_batch(std::vector<Ticket>& out);
  /// Solves a dispatch of one or more same-key requests as one batched
  /// multi-RHS solve and fans per-column results (or errors) out to the
  /// tickets' promises. `sys` is the worker's reused system copy: the
  /// per-dispatch copy is a memcpy into an existing allocation, not a fresh
  /// multi-MB malloc/free.
  void process_batch(std::vector<Ticket> batch, plan::PlanCache* cache, fem::System& sys);

  ServiceOptions opt_;
  obs::Registry registry_;
  plan::PlanCache cache_;
  /// The PDJDS plans mutate plan-owned DJDS values in numeric(), so
  /// vectorized orderings cannot share plans across in-flight solves: each
  /// worker then uses its own cache (still warm within the worker).
  std::vector<std::unique_ptr<plan::PlanCache>> worker_caches_;

  std::deque<Model> models_;  ///< deque: stable addresses while growing
  mutable std::mutex models_mtx_;

  mutable std::mutex mtx_;
  std::condition_variable cv_work_;
  std::condition_variable cv_drain_;
  std::deque<Ticket> queues_[kNumPriorities];
  int interactive_streak_ = 0;  ///< consecutive interactive dispatches
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  Counts counts_;
  std::size_t depth_max_[kNumPriorities] = {0, 0};

  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::thread> threads_;
};

}  // namespace geofem::svc
