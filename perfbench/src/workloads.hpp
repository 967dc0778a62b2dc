#pragma once

#include <string>

#include "common.hpp"
#include "precond/preconditioner.hpp"

namespace pb {

/// Untraced end-to-end runs: fill `res` with every end-to-end metric.
void swj_run(const Options& opt, Result& res);
void svc_run(const Options& opt, Result& res);

/// Traced per-layer passes. `seconds` is the pass length; `named` is true for
/// the workload the run was asked for, which also publishes the set-up layer
/// times, `unattributed_ms` and `obs.overhead_frac`.
void swj_trace(const Options& opt, double seconds, bool named, double stream_gbs, Trace& tr,
               Result& res);
/// The distributed stack has no end-to-end workload (see dist2.cpp); its
/// pass publishes its own remainder and overhead.
void dist2_trace(const Options& opt, double seconds, Trace& tr, Result& res);
void svc_trace(const Options& opt, double seconds, bool named, Trace& tr, Result& res);

/// Host probes of the traced run.
double probe_stream(Result& res);                 ///< returns triad GB/s
void probe_comm(std::size_t halo_doubles, Result& res);

/// Forwarding preconditioner decorator: owns the wrapped preconditioner and
/// records one span per apply() or apply_multi() call under `parent`.
class TimedPrecond final : public geofem::precond::Preconditioner {
 public:
  TimedPrecond(geofem::precond::PreconditionerPtr inner, Trace& tr, int op, int parent, int tid)
      : inner_(std::move(inner)), tr_(tr), op_(op), parent_(parent), tid_(tid) {}

  void apply(std::span<const double> r, std::span<double> z, geofem::util::FlopCounter* f,
             geofem::util::LoopStats* l) const override {
    const int s = tr_.begin("precond.apply", op_, parent_, tid_);
    inner_->apply(r, z, f, l);
    tr_.end(s);
  }
  void apply_multi(std::span<const double> r, std::span<double> z, int k,
                   geofem::util::FlopCounter* f, geofem::util::LoopStats* l) const override {
    const int s = tr_.begin("precond.apply", op_, parent_, tid_);
    inner_->apply_multi(r, z, k, f, l);
    tr_.end(s);
  }
  [[nodiscard]] std::size_t memory_bytes() const override { return inner_->memory_bytes(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] geofem::precond::Desc desc() const override { return inner_->desc(); }

 private:
  geofem::precond::PreconditionerPtr inner_;
  Trace& tr_;
  int op_, parent_, tid_;
};

}  // namespace pb
