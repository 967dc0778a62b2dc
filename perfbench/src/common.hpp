#pragma once

// Shared pieces of the benchmark binary: command-line options, exact-sample
// statistics, the true-residual correctness gate, the in-memory span trace
// and the result line. Everything here sits outside the library and reaches
// it only through public headers.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "fem/assembly.hpp"
#include "mesh/hex_mesh.hpp"
#include "sparse/block_csr.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< toy sizes for the self-check; no recorded-count gate
  std::string trace_out;    ///< Chrome trace path (traced runs)
};

/// Seconds on the steady clock since the first call in this process.
double now_s();

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
/// The highest percentile that keeps at least ten samples above it (p99 once
/// there are 1,000 samples); `pct` receives that percentile.
double tail_percentile(std::vector<double> v, double* pct);

/// Peak resident set of this process, MB (getrusage).
double peak_rss_mb();

/// Seeded input stream. Only the raw 64-bit engine is used so that a seed
/// gives the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : eng_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  int below(int n) { return static_cast<int>(eng_() % static_cast<std::uint64_t>(n)); }

 private:
  std::mt19937_64 eng_;
};

/// Load scale 2^k chosen by the seed: scaling b by a power of two scales
/// every CG iterate exactly, so iteration counts and relative residuals are
/// bit-identical across seeds while the inputs differ.
double seeded_load_scale(Rng& rng, int kmin, int kmax);

/// Correctness gate on one solution. The relative true residual
/// ||b - A x|| / ||b|| must stay within ten times the CG tolerance plus ten
/// times the rounding floor of evaluating A x in double precision,
/// eps * || |A| |x| || / ||b||. The floor term matters only at large penalty
/// values, where the penalty rows make ||A|| ||x|| dwarf ||b||.
struct ResidualCheck {
  double rel = 0.0;
  double bound = 0.0;
  [[nodiscard]] bool ok() const { return rel <= bound; }
};
ResidualCheck true_residual(const geofem::sparse::BlockCSR& a, std::span<const double> b,
                            std::span<const double> x, double tol);

class Trace;

/// Copy `base` into `out` (reusing its storage), add the contact penalty on
/// `groups` and apply `bc` with every load scaled by `load_scale`. With `tr`
/// set, the penalty and the boundary conditions get a span each
/// (`contact.penalty`, `fem.bc`) under `parent`.
void make_system(const geofem::fem::System& base,
                 const std::vector<std::vector<int>>& groups, double lambda,
                 const geofem::fem::BoundaryConditions& bc, double load_scale,
                 geofem::fem::System& out, Trace* tr = nullptr, int op = -1, int parent = -1);

/// The set-up layers every stack shares: mesh, elasticity, and the first
/// solve-ready system.
struct BaseModel {
  geofem::mesh::HexMesh mesh;
  geofem::fem::BoundaryConditions bc;
  geofem::fem::System base;  ///< elasticity only
  geofem::fem::System sys;   ///< base + penalty at the first λ + boundary conditions
};

/// Generate the mesh (`generate`, then `bc_of` for its boundary conditions),
/// assemble the elasticity system and make the first system at `lambda`. With
/// `tr` set, each layer gets a span under `parent`: `mesh.generate`,
/// `fem.assemble`, `contact.penalty`, `fem.bc`.
template <class Generate, class BcOf>
BaseModel build_model(Generate generate, BcOf bc_of, double lambda, double load_scale, Trace* tr,
                      int op, int parent);

/// Fig 23 boundary conditions of the simple block model: symmetry at x=0 and
/// y=0, fixed bottom, uniform downward traction on top.
geofem::fem::BoundaryConditions simple_block_bc(const geofem::mesh::HexMesh& m);
/// Southwest-Japan boundary conditions: fixed flat bottom, gravity body force.
geofem::fem::BoundaryConditions swjapan_bc(const geofem::mesh::HexMesh& m);

/// In-memory span recorder. Spans carry a name, start, end, parent span and
/// the operation id they belong to; they are written once, at exit, as a
/// Chrome trace. Thread-safe: rank threads record concurrently.
class Trace {
 public:
  struct Span {
    std::string name;
    int op = -1;
    int parent = -1;
    int tid = 0;
    double start_us = 0.0;
    double dur_us = -1.0;
  };

  int begin(std::string name, int op, int parent, int tid = 0);
  void end(int idx);
  /// A span whose bounds were measured elsewhere (e.g. reported by the
  /// service for a request); `start_us` is on this trace's clock.
  int add(std::string name, int op, int parent, double start_us, double dur_us, int tid = 0);
  [[nodiscard]] double now_us() const { return us_at(std::chrono::steady_clock::now()); }
  [[nodiscard]] double us_at(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  /// Fresh operation id (spans of one operation share it).
  int new_op() { return next_op_++; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double dur_ms(int idx) const { return spans_[static_cast<std::size_t>(idx)].dur_us * 1e-3; }
  /// Duration minus the part of the interval covered by direct children, ms.
  [[nodiscard]] double self_ms(int idx) const;
  /// Durations (ms) of every span with this name (optionally under `op`).
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name, int op = -1) const;

  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mtx_;
  std::vector<Span> spans_;
  int next_op_ = 0;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span on a Trace that may be null (untraced passes share the code).
class Scoped {
 public:
  Scoped(Trace* t, std::string name, int op, int parent, int tid = 0)
      : t_(t), idx_(t ? t->begin(std::move(name), op, parent, tid) : -1) {}
  ~Scoped() {
    if (t_) t_->end(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] int idx() const { return idx_; }

 private:
  Trace* t_;
  int idx_;
};

/// The result of one run: metrics by name with units, plus the operation
/// counts the correctness gate produced. print() writes the final JSON line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record one operation; a failed one is reported on stderr with `why`.
  void op(bool ok, const std::string& why = "");
  /// A failure of the run itself (trace mismatch, recorded-count mismatch).
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const { return failed_ == 0 && run_ok_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  void print() const;

 private:
  struct M {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<M> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool run_ok_ = true;
};

template <class Generate, class BcOf>
BaseModel build_model(Generate generate, BcOf bc_of, double lambda, double load_scale, Trace* tr,
                      int op, int parent) {
  BaseModel m;
  {
    Scoped s(tr, "mesh.generate", op, parent);
    m.mesh = generate();
    m.bc = bc_of(m.mesh);
  }
  {
    Scoped s(tr, "fem.assemble", op, parent);
    m.base = geofem::fem::assemble_elasticity(m.mesh, {{1.0, 0.3}});
  }
  make_system(m.base, m.mesh.contact_groups, lambda, m.bc, load_scale, m.sys, tr, op, parent);
  return m;
}

/// Log a human-readable line on stderr (sample counts, sizes, percentiles).
void note(const std::string& line);

/// Cache sizes for the working-set notes (sysconf; 0 when unknown).
std::size_t l2_bytes();
std::size_t l3_bytes();

}  // namespace pb
