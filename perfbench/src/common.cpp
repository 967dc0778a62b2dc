#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>

#include "contact/penalty.hpp"
#include "obs/export.hpp"

namespace pb {

namespace gf = geofem;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double tail_percentile(std::vector<double> v, double* pct) {
  // Nearest rank k leaves n - k samples above it; keep ten of them. Runs of
  // 1,000+ samples cap at p99.
  const double n = static_cast<double>(v.size());
  double q = n > 10.0 ? (n - 10.0) / n : 0.5;
  q = std::clamp(q, 0.5, 0.99);
  if (pct) *pct = 100.0 * q;
  return percentile(std::move(v), q);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seeded_load_scale(Rng& rng, int kmin, int kmax) {
  return std::ldexp(1.0, kmin + rng.below(kmax - kmin + 1));
}

ResidualCheck true_residual(const gf::sparse::BlockCSR& a, std::span<const double> b,
                            std::span<const double> x, double tol) {
  std::vector<double> ax(b.size(), 0.0);
  a.spmv(x, ax);
  std::vector<double> absax(b.size(), 0.0);
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[static_cast<std::size_t>(i)]; e < a.rowptr[static_cast<std::size_t>(i) + 1]; ++e) {
      const double* blk = a.block(e);
      const auto j = static_cast<std::size_t>(a.colind[static_cast<std::size_t>(e)]);
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
          absax[static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r)] +=
              std::abs(blk[r * 3 + c]) * std::abs(x[j * 3 + static_cast<std::size_t>(c)]);
    }
  double rr = 0.0, bb = 0.0, ff = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double r = b[i] - ax[i];
    rr += r * r;
    bb += b[i] * b[i];
    ff += absax[i] * absax[i];
  }
  const double eps = std::numeric_limits<double>::epsilon();
  ResidualCheck c;
  c.rel = std::sqrt(rr / bb);
  c.bound = 10.0 * tol + 10.0 * eps * std::sqrt(ff / bb);
  if (!std::isfinite(c.rel)) c.rel = std::numeric_limits<double>::infinity();
  return c;
}

void make_system(const gf::fem::System& base, const std::vector<std::vector<int>>& groups,
                 double lambda, const gf::fem::BoundaryConditions& bc, double load_scale,
                 gf::fem::System& out, Trace* tr, int op, int parent) {
  out.a = base.a;
  out.b = base.b;
  {
    Scoped s(tr, "contact.penalty", op, parent);
    gf::contact::add_penalty(out.a, groups, lambda);
  }
  Scoped s(tr, "fem.bc", op, parent);
  gf::fem::BoundaryConditions scaled = bc;
  for (auto& l : scaled.loads) l.value *= load_scale;
  gf::fem::apply_boundary_conditions(out, scaled);
}

gf::fem::BoundaryConditions simple_block_bc(const gf::mesh::HexMesh& m) {
  gf::fem::BoundaryConditions bc;
  bc.fix_nodes(m.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
  bc.fix_nodes(m.nodes_where([](double x, double, double) { return x == 0.0; }), 0);
  bc.fix_nodes(m.nodes_where([](double, double y, double) { return y == 0.0; }), 1);
  const double zmax = m.bounding_box().hi[2];
  bc.surface_load(
      m, [zmax](double, double, double z) { return std::abs(z - zmax) < 1e-9; }, 2, -1.0);
  return bc;
}

gf::fem::BoundaryConditions swjapan_bc(const gf::mesh::HexMesh& m) {
  gf::fem::BoundaryConditions bc;
  const double zmin = m.bounding_box().lo[2];
  bc.fix_nodes(m.nodes_where([zmin](double, double, double z) { return z < zmin + 1e-9; }), -1);
  bc.body_force(m, 2, -1.0);
  return bc;
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

int Trace::begin(std::string name, int op, int parent, int tid) {
  const double t = now_us();
  std::lock_guard lock(mtx_);
  spans_.push_back(Span{std::move(name), op, parent, tid, t, -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void Trace::end(int idx) {
  const double t = now_us();
  std::lock_guard lock(mtx_);
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.dur_us = t - s.start_us;
}

int Trace::add(std::string name, int op, int parent, double start_us, double dur_us, int tid) {
  std::lock_guard lock(mtx_);
  spans_.push_back(Span{std::move(name), op, parent, tid, start_us, dur_us});
  return static_cast<int>(spans_.size() - 1);
}

double Trace::self_ms(int idx) const {
  const Span& p = spans_[static_cast<std::size_t>(idx)];
  std::vector<std::pair<double, double>> iv;
  for (const Span& s : spans_)
    if (s.parent == idx && s.dur_us >= 0.0) iv.emplace_back(s.start_us, s.start_us + s.dur_us);
  std::sort(iv.begin(), iv.end());
  // union of the child intervals, clipped to the parent
  double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
  const double lo = p.start_us, hi = p.start_us + p.dur_us;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
  return (p.dur_us - covered) * 1e-3;
}

std::vector<double> Trace::durations_ms(const std::string& name, int op) const {
  std::vector<double> d;
  for (const Span& s : spans_)
    if (s.name == name && (op < 0 || s.op == op) && s.dur_us >= 0.0) d.push_back(s.dur_us * 1e-3);
  return d;
}

void Trace::write_chrome(const std::string& path) const {
  // Rendered with the library's Chrome exporter; the operation id and parent
  // span, which its records do not carry, are added as event args.
  gf::obs::Snapshot snap;
  for (const Span& s : spans_) {
    gf::obs::SpanRecord r;
    r.name = s.name;
    r.tid = s.tid;
    r.parent = s.parent;
    r.start_us = s.start_us;
    r.dur_us = s.dur_us;
    int depth = 0;
    for (int p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) ++depth;
    r.depth = depth;
    snap.spans.push_back(std::move(r));
  }
  const gf::obs::json::Value doc = gf::obs::chrome_trace_json(snap);
  gf::obs::json::Value out = gf::obs::json::Value::object();
  out["displayTimeUnit"] = "ms";
  gf::obs::json::Value& events = (out["traceEvents"] = gf::obs::json::Value::array());
  const auto& in = doc.at("traceEvents").items();
  for (std::size_t i = 0; i < in.size(); ++i) {
    gf::obs::json::Value ev = in[i];
    gf::obs::json::Value& args = (ev["args"] = gf::obs::json::Value::object());
    args["op"] = spans_[i].op;
    args["span"] = static_cast<int>(i);
    args["parent"] = spans_[i].parent;
    events.push(std::move(ev));
  }
  gf::obs::write_file(out, path);
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_.push_back(M{name, value, unit});
}

void Result::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) note("FAILED operation: " + why);
  }
}

void Result::fail(const std::string& why) {
  run_ok_ = false;
  note("FAILED run check: " + why);
}

namespace {
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}
}  // namespace

void Result::print() const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + metrics_[i].name + "\": {\"value\": " + num(metrics_[i].value) +
         ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

void note(const std::string& line) { std::cerr << "[perfbench] " << line << std::endl; }

std::size_t l2_bytes() {
  const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

std::size_t l3_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

}  // namespace pb
