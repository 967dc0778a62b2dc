// Set-up path bit-identity suite: the assembled matrix, every element
// stiffness matrix, every PDJDS jagged array and the supernode quotient graph
// are compared with memcmp against test-local copies of the straightforward
// algorithms they replaced (per-row pair lists with sort/unique, a binary
// search per scattered block, the element kernel with the Gauss-point loop
// outermost, per-row vectors for the jagged build). Any difference in a value
// can move the recorded iteration counts, so equality here is bitwise. The
// set-up runs on the caller's team (par::TeamScope), so the reference
// comparisons run at teams 1-4, and the numeric set-up (DJDS values, unit
// factors, singleton packs) is compared across teams, including the A_SS
// fallback and the typed error of a singular selective block.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "contact/penalty.hpp"
#include "core/status.hpp"
#include "fem/assembly.hpp"
#include "fem/elasticity.hpp"
#include "mesh/simple_block.hpp"
#include "mesh/southwest_japan.hpp"
#include "par/par.hpp"
#include "plan/plan.hpp"
#include "precond/djds_bic.hpp"
#include "precond/sb_bic0.hpp"
#include "reorder/coloring.hpp"
#include "reorder/djds.hpp"
#include "sparse/block_csr.hpp"

namespace gc = geofem::contact;
namespace gf = geofem::fem;
namespace gm = geofem::mesh;
namespace gp = geofem::precond;
namespace gr = geofem::reorder;
namespace gs = geofem::sparse;

namespace {

// ---------------------------------------------------------------------------
// Reference algorithms
// ---------------------------------------------------------------------------
namespace ref {

constexpr double kXi[8] = {-1, 1, 1, -1, -1, 1, 1, -1};
constexpr double kEta[8] = {-1, -1, 1, 1, -1, -1, 1, 1};
constexpr double kZeta[8] = {-1, -1, -1, -1, 1, 1, 1, 1};

void shape_grad(double xi, double eta, double zeta, double dn[8][3]) {
  for (int a = 0; a < 8; ++a) {
    dn[a][0] = 0.125 * kXi[a] * (1 + kEta[a] * eta) * (1 + kZeta[a] * zeta);
    dn[a][1] = 0.125 * kEta[a] * (1 + kXi[a] * xi) * (1 + kZeta[a] * zeta);
    dn[a][2] = 0.125 * kZeta[a] * (1 + kXi[a] * xi) * (1 + kEta[a] * eta);
  }
}

double jacobian(const std::array<std::array<double, 3>, 8>& xyz, const double dn[8][3],
                double jinv[3][3]) {
  double j[3][3] = {};
  for (int a = 0; a < 8; ++a)
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) j[r][c] += dn[a][r] * xyz[static_cast<std::size_t>(a)][c];
  const double det = j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1]) -
                     j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0]) +
                     j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]);
  const double id = 1.0 / det;
  jinv[0][0] = (j[1][1] * j[2][2] - j[1][2] * j[2][1]) * id;
  jinv[0][1] = (j[0][2] * j[2][1] - j[0][1] * j[2][2]) * id;
  jinv[0][2] = (j[0][1] * j[1][2] - j[0][2] * j[1][1]) * id;
  jinv[1][0] = (j[1][2] * j[2][0] - j[1][0] * j[2][2]) * id;
  jinv[1][1] = (j[0][0] * j[2][2] - j[0][2] * j[2][0]) * id;
  jinv[1][2] = (j[0][2] * j[1][0] - j[0][0] * j[1][2]) * id;
  jinv[2][0] = (j[1][0] * j[2][1] - j[1][1] * j[2][0]) * id;
  jinv[2][1] = (j[0][1] * j[2][0] - j[0][0] * j[2][1]) * id;
  jinv[2][2] = (j[0][0] * j[1][1] - j[0][1] * j[1][0]) * id;
  return det;
}

/// Element stiffness with the Gauss-point loop outermost, accumulated in ke.
void hex_stiffness(const std::array<std::array<double, 3>, 8>& xyz, const gf::Material& mat,
                   double ke[24 * 24]) {
  for (int i = 0; i < 24 * 24; ++i) ke[i] = 0.0;
  const double e = mat.youngs, nu = mat.poisson;
  const double lambda = e * nu / ((1 + nu) * (1 - 2 * nu));
  const double mu = e / (2 * (1 + nu));
  const double g = 1.0 / std::sqrt(3.0);
  for (int qx = 0; qx < 2; ++qx)
    for (int qy = 0; qy < 2; ++qy)
      for (int qz = 0; qz < 2; ++qz) {
        const double xi = (qx ? g : -g), eta = (qy ? g : -g), zeta = (qz ? g : -g);
        double dn[8][3], jinv[3][3];
        shape_grad(xi, eta, zeta, dn);
        const double det = jacobian(xyz, dn, jinv);
        double gn[8][3];
        for (int a = 0; a < 8; ++a)
          for (int d = 0; d < 3; ++d)
            gn[a][d] = jinv[d][0] * dn[a][0] + jinv[d][1] * dn[a][1] + jinv[d][2] * dn[a][2];
        for (int a = 0; a < 8; ++a) {
          for (int b = 0; b < 8; ++b) {
            const double dotab =
                gn[a][0] * gn[b][0] + gn[a][1] * gn[b][1] + gn[a][2] * gn[b][2];
            for (int r = 0; r < 3; ++r)
              for (int c = 0; c < 3; ++c) {
                double v = lambda * gn[a][r] * gn[b][c] + mu * gn[a][c] * gn[b][r];
                if (r == c) v += mu * dotab;
                ke[(3 * a + r) * 24 + (3 * b + c)] += v * det;
              }
          }
        }
      }
}

std::array<std::array<double, 3>, 8> element_coords(const gm::HexMesh& m, std::size_t e) {
  std::array<std::array<double, 3>, 8> xyz;
  for (std::size_t v = 0; v < 8; ++v)
    xyz[v] = m.coords[static_cast<std::size_t>(m.hexes[e][v])];
  return xyz;
}

const gf::Material& material_of(const gm::HexMesh& m, const std::vector<gf::Material>& mats,
                                std::size_t e) {
  const auto zid = static_cast<std::size_t>(m.zone.empty() ? 0 : m.zone[e]);
  return mats[zid < mats.size() ? zid : 0];
}

/// Pattern from one column list per row (every (a, b) pair of every element
/// and contact group pushed, then sort + unique), values scattered with a
/// binary search per block.
gs::BlockCSR assemble(const gm::HexMesh& m, const std::vector<gf::Material>& mats) {
  const int nn = m.num_nodes();
  std::vector<std::vector<int>> cols(static_cast<std::size_t>(nn));
  for (int i = 0; i < nn; ++i) cols[static_cast<std::size_t>(i)].push_back(i);
  for (const auto& h : m.hexes)
    for (int a : h)
      for (int b : h)
        if (a != b) cols[static_cast<std::size_t>(a)].push_back(b);
  for (const auto& grp : m.contact_groups)
    for (int a : grp)
      for (int b : grp)
        if (a != b) cols[static_cast<std::size_t>(a)].push_back(b);
  gs::BlockCSR k;
  k.n = nn;
  k.rowptr.assign(static_cast<std::size_t>(nn) + 1, 0);
  for (int i = 0; i < nn; ++i) {
    auto& c = cols[static_cast<std::size_t>(i)];
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    k.rowptr[static_cast<std::size_t>(i) + 1] =
        k.rowptr[static_cast<std::size_t>(i)] + static_cast<int>(c.size());
    k.colind.insert(k.colind.end(), c.begin(), c.end());
  }
  k.val.assign(k.colind.size() * gs::kBB, 0.0);
  double ke[24 * 24];
  for (std::size_t e = 0; e < m.hexes.size(); ++e) {
    const auto& h = m.hexes[e];
    ref::hex_stiffness(element_coords(m, e), material_of(m, mats, e), ke);
    for (int a = 0; a < 8; ++a)
      for (int b = 0; b < 8; ++b) {
        const int p = k.find(h[static_cast<std::size_t>(a)], h[static_cast<std::size_t>(b)]);
        double* dst = k.block(p);
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c) dst[3 * r + c] += ke[(3 * a + r) * 24 + (3 * b + c)];
      }
  }
  return k;
}

/// Jagged parts of chunk `ch` from per-row vectors of (new column, entry)
/// pairs, given the layout (permutation, chunks, supernode ranges) of `dj`.
std::pair<gr::Jagged, gr::Jagged> jagged(const gs::BlockCSR& a, const gr::DJDSMatrix& dj,
                                         int ch) {
  const int begin = dj.chunk_begin()[static_cast<std::size_t>(ch)];
  const int count = dj.chunk_begin()[static_cast<std::size_t>(ch) + 1] - begin;
  std::vector<std::vector<std::pair<int, int>>> lo(static_cast<std::size_t>(count)),
      up(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    const int in = begin + t;
    const int old = dj.iperm()[static_cast<std::size_t>(in)];
    for (int e = a.rowptr[old]; e < a.rowptr[old + 1]; ++e) {
      const int jn = dj.perm()[static_cast<std::size_t>(a.colind[e])];
      if (jn == in) continue;
      if (dj.range_of_row(in) != -1 && dj.range_of_row(jn) == dj.range_of_row(in)) continue;
      (jn < in ? lo : up)[static_cast<std::size_t>(t)].emplace_back(jn, e);
    }
  }
  auto build = [&](std::vector<std::vector<std::pair<int, int>>>& rows) {
    gr::Jagged out;
    std::vector<int> plen(static_cast<std::size_t>(count), 0);
    for (int t = count - 1; t >= 0; --t) {
      const int len = static_cast<int>(rows[static_cast<std::size_t>(t)].size());
      plen[static_cast<std::size_t>(t)] =
          std::max(len, t + 1 < count ? plen[static_cast<std::size_t>(t) + 1] : 0);
    }
    const int njd = count > 0 ? plen[0] : 0;
    out.jd_ptr.assign(static_cast<std::size_t>(njd) + 1, 0);
    for (auto& r : rows)
      std::sort(r.begin(), r.end(), [](const auto& x, const auto& y) { return x.first < y.first; });
    for (int j = 0; j < njd; ++j) {
      int covered = 0;
      while (covered < count && plen[static_cast<std::size_t>(covered)] > j) ++covered;
      out.jd_ptr[static_cast<std::size_t>(j) + 1] =
          out.jd_ptr[static_cast<std::size_t>(j)] + covered;
      for (int t = 0; t < covered; ++t) {
        const auto& r = rows[static_cast<std::size_t>(t)];
        if (j < static_cast<int>(r.size())) {
          out.item.push_back(r[static_cast<std::size_t>(j)].first);
          out.src.push_back(r[static_cast<std::size_t>(j)].second);
          const double* src = a.block(r[static_cast<std::size_t>(j)].second);
          out.val.insert(out.val.end(), src, src + gs::kBB);
        } else {
          out.item.push_back(begin + t);
          out.src.push_back(-1);
          out.val.insert(out.val.end(), gs::kBB, 0.0);
          ++out.dummies;
        }
      }
    }
    return out;
  };
  return {build(lo), build(up)};
}

/// Quotient graph from per-supernode lists with sort + unique.
gs::Graph quotient_graph(const gs::Graph& g, const std::vector<int>& vertex_to_super,
                         int num_supers) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(num_supers));
  for (int v = 0; v < g.n; ++v) {
    const int sv = vertex_to_super[static_cast<std::size_t>(v)];
    for (int e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
      const int sw =
          vertex_to_super[static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)])];
      if (sv != sw) adj[static_cast<std::size_t>(sv)].push_back(sw);
    }
  }
  gs::Graph q;
  q.n = num_supers;
  q.xadj.assign(static_cast<std::size_t>(num_supers) + 1, 0);
  for (int s = 0; s < num_supers; ++s) {
    auto& a = adj[static_cast<std::size_t>(s)];
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
    q.xadj[static_cast<std::size_t>(s) + 1] =
        q.xadj[static_cast<std::size_t>(s)] + static_cast<int>(a.size());
  }
  for (auto& a : adj) q.adjncy.insert(q.adjncy.end(), a.begin(), a.end());
  return q;
}

/// Symmetric elimination visiting every stored scalar, with k load scales
/// (k = 0: the single-RHS form on sys.b). Returns the right-hand sides.
std::vector<std::vector<double>> apply_bcs(gf::System& sys, const gf::BoundaryConditions& bc,
                                           const std::vector<double>& scales) {
  auto& a = sys.a;
  const bool single = scales.empty();
  const std::size_t k = single ? 1 : scales.size();
  std::vector<std::vector<double>> cols(k, sys.b);
  for (std::size_t c = 0; c < k; ++c)
    for (const auto& l : bc.loads)
      cols[c][static_cast<std::size_t>(l.node) * 3 + static_cast<std::size_t>(l.comp)] +=
          single ? l.value : l.value * scales[c];
  std::vector<char> fixed(a.ndof(), 0);
  std::vector<double> fixval(a.ndof(), 0.0);
  for (const auto& f : bc.fixes) {
    const std::size_t d = static_cast<std::size_t>(f.node) * 3 + static_cast<std::size_t>(f.comp);
    fixed[d] = 1;
    fixval[d] = f.value;
  }
  for (int i = 0; i < a.n; ++i)
    for (int e = a.rowptr[static_cast<std::size_t>(i)];
         e < a.rowptr[static_cast<std::size_t>(i) + 1]; ++e) {
      const int j = a.colind[static_cast<std::size_t>(e)];
      double* blk = a.block(e);
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) {
          const std::size_t row = static_cast<std::size_t>(3 * i + r);
          const std::size_t col = static_cast<std::size_t>(3 * j + c);
          double& v = blk[3 * r + c];
          if (row == col) continue;
          if (fixed[col] && !fixed[row])
            for (auto& b : cols) b[row] -= v * fixval[col];
          if (fixed[row] || fixed[col]) v = 0.0;
        }
    }
  for (int i = 0; i < a.n; ++i) {
    double* d = a.block(a.diag_entry(i));
    for (int r = 0; r < 3; ++r) {
      const std::size_t row = static_cast<std::size_t>(3 * i + r);
      if (!fixed[row]) continue;
      if (d[3 * r + r] == 0.0) d[3 * r + r] = 1.0;
      for (auto& b : cols) b[row] = d[3 * r + r] * fixval[row];
    }
  }
  return cols;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

struct Model {
  std::string name;
  gm::HexMesh mesh;
  std::vector<gf::Material> materials;
};

gm::HexMesh swjapan(int nx, int ny) {
  gm::SouthwestJapanParams p;
  p.nx = nx;
  p.ny = ny;
  return gm::southwest_japan_like(p);
}

std::vector<Model> assembly_models() {
  return {{"swjapan_8x6", swjapan(8, 6), {{1.0, 0.3}}},
          // Zones 0..2, two materials: zone 2 falls back to material 0.
          {"swjapan_24x20_two_materials", swjapan(24, 20), {{1.0, 0.3}, {2.5, 0.25}}},
          {"block_6_6_4_6_6", gm::simple_block({6, 6, 4, 6, 6}), {{1.0, 0.3}}}};
}

/// Team sizes every set-up comparison runs at.
constexpr int kTeams[] = {1, 2, 3, 4};

template <class T, class A1, class A2>
bool same_bits(const std::vector<T, A1>& x, const std::vector<T, A2>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(Setup, ElementMatricesBitIdentical) {
  for (const Model& md : assembly_models()) {
    double ke[24 * 24], ke_ref[24 * 24];
    for (std::size_t e = 0; e < md.mesh.hexes.size(); ++e) {
      const auto xyz = ref::element_coords(md.mesh, e);
      const auto& mat = ref::material_of(md.mesh, md.materials, e);
      gf::hex_stiffness(xyz, mat, ke);
      ref::hex_stiffness(xyz, mat, ke_ref);
      ASSERT_EQ(std::memcmp(ke, ke_ref, sizeof ke), 0) << md.name << " element " << e;
    }
  }
}

TEST(Setup, AssembledMatrixBitIdentical) {
  for (const Model& md : assembly_models()) {
    const gs::BlockCSR want = ref::assemble(md.mesh, md.materials);
    for (int team : kTeams) {
      geofem::par::TeamScope scope(team);
      const std::string cfg = md.name + " team=" + std::to_string(team);
      const gf::System sys = gf::assemble_elasticity(md.mesh, md.materials);
      EXPECT_EQ(sys.a.n, want.n) << cfg;
      EXPECT_TRUE(same_bits(sys.a.rowptr, want.rowptr)) << cfg;
      EXPECT_TRUE(same_bits(sys.a.colind, want.colind)) << cfg;
      EXPECT_TRUE(same_bits(sys.a.val, want.val)) << cfg;
      // Exact-size arrays: no slack left from an over-reserved build.
      EXPECT_EQ(sys.a.colind.capacity(), sys.a.colind.size()) << cfg;
      EXPECT_EQ(sys.b.size(), sys.a.ndof()) << cfg;
    }
  }
}

TEST(Setup, QuotientGraphBitIdentical) {
  for (const Model& md : assembly_models()) {
    const gf::System sys = gf::assemble_elasticity(md.mesh, md.materials);
    const auto sn = gc::build_supernodes(sys.a.n, md.mesh.contact_groups);
    const gs::Graph g = gs::graph_of(sys.a);
    const gs::Graph q = gr::quotient_graph(g, sn.node_to_super, sn.count());
    const gs::Graph want = ref::quotient_graph(g, sn.node_to_super, sn.count());
    EXPECT_EQ(q.n, want.n) << md.name;
    EXPECT_TRUE(same_bits(q.xadj, want.xadj)) << md.name;
    EXPECT_TRUE(same_bits(q.adjncy, want.adjncy)) << md.name;
  }
}

// 2 meshes x colors {5, 20, 40} x npe {1, 3, 8} x supernodes on/off, each
// built at teams 1-4.
TEST(Setup, DJDSJaggedArraysBitIdentical) {
  const std::vector<Model> models = {{"swjapan_8x6", swjapan(8, 6), {{1.0, 0.3}}},
                                     {"block_6_6_4_6_6", gm::simple_block({6, 6, 4, 6, 6}),
                                      {{1.0, 0.3}}}};
  int configs = 0;
  for (const Model& md : models) {
    gf::System sys = gf::assemble_elasticity(md.mesh, md.materials);
    gc::add_penalty(sys.a, md.mesh.contact_groups, 1e6);
    const auto sn = gc::build_supernodes(sys.a.n, md.mesh.contact_groups);
    const gs::Graph g = gs::graph_of(sys.a);
    const gs::Graph q = gr::quotient_graph(g, sn.node_to_super, sn.count());
    for (int colors : {5, 20, 40})
      for (int npe : {1, 3, 8})
        for (bool selective : {false, true}) {
          const gr::Coloring coloring =
              selective ? gr::lift_coloring(gr::multicolor(q, colors), sn.node_to_super, sys.a.n)
                        : gr::multicolor(g, colors);
          gr::DJDSOptions opt;
          opt.npe = npe;
          for (int team : kTeams) {
            geofem::par::TeamScope scope(team);
            const gr::DJDSMatrix dj(sys.a, coloring, selective ? &sn : nullptr, opt);
            const std::string cfg = md.name + " colors=" + std::to_string(colors) +
                                    " npe=" + std::to_string(npe) +
                                    " supernodes=" + std::to_string(selective) +
                                    " team=" + std::to_string(team);
            std::int64_t jd_total = 0, jd_count = 0;
            std::ptrdiff_t byte_delta = 0;
            auto jagged_bytes = [](const gr::Jagged& p) {
              return static_cast<std::ptrdiff_t>(p.val.size() * sizeof(double) +
                                                 (p.item.size() + p.src.size() + p.jd_ptr.size()) *
                                                     sizeof(int));
            };
            const int nchunks = dj.num_colors() * npe;
            for (int ch = 0; ch < nchunks; ++ch) {
              const auto [lo, up] = ref::jagged(sys.a, dj, ch);
              for (const auto& [got, want] : {std::pair{&dj.lower(ch), &lo},
                                              std::pair{&dj.upper(ch), &up}}) {
                ASSERT_TRUE(same_bits(got->jd_ptr, want->jd_ptr)) << cfg << " chunk " << ch;
                ASSERT_TRUE(same_bits(got->item, want->item)) << cfg << " chunk " << ch;
                ASSERT_TRUE(same_bits(got->src, want->src)) << cfg << " chunk " << ch;
                ASSERT_TRUE(same_bits(got->val, want->val)) << cfg << " chunk " << ch;
                ASSERT_EQ(got->dummies, want->dummies) << cfg << " chunk " << ch;
                EXPECT_EQ(got->val.capacity(), got->val.size()) << cfg << " chunk " << ch;
                for (int j = 0; j < want->num_jd(); ++j) {
                  jd_total += want->jd_ptr[static_cast<std::size_t>(j) + 1] -
                              want->jd_ptr[static_cast<std::size_t>(j)];
                  ++jd_count;
                }
                byte_delta += jagged_bytes(*want) - jagged_bytes(*got);
              }
            }
            // The statistics read the same structure: the average loop length
            // of the reference jagged diagonals, and the byte count with the
            // reference jagged arrays in place of the built ones.
            const double avg =
                jd_count == 0 ? 0.0 : static_cast<double>(jd_total) / static_cast<double>(jd_count);
            EXPECT_EQ(dj.average_vector_length(), avg) << cfg;
            EXPECT_EQ(byte_delta, 0) << cfg << " memory_bytes " << dj.memory_bytes();
          }
          ++configs;
        }
  }
  EXPECT_EQ(configs, 36);
}

// Penalty + boundary conditions on two models (body force and a bottom
// fixed on the Southwest-Japan mesh; a surface load, three symmetry planes
// and one nonzero prescribed value on the block), single- and multi-RHS, at
// teams 1-4, against the elimination that visits every stored scalar.
TEST(Setup, BoundaryConditionsBitIdentical) {
  const std::vector<Model> models = {{"swjapan_8x6", swjapan(8, 6), {{1.0, 0.3}}},
                                     {"block_6_6_4_6_6", gm::simple_block({6, 6, 4, 6, 6}),
                                      {{1.0, 0.3}}}};
  for (const Model& md : models) {
    gf::System base = gf::assemble_elasticity(md.mesh, md.materials);
    gc::add_penalty(base.a, md.mesh.contact_groups, 1e6);
    gf::BoundaryConditions bc;
    const auto box = md.mesh.bounding_box();
    if (md.name == "swjapan_8x6") {
      bc.fix_nodes(md.mesh.nodes_where([&](double, double, double z) {
        return z < box.lo[2] + 1e-9;
      }), -1);
      bc.body_force(md.mesh, 2, -1.0);
    } else {
      bc.fix_nodes(md.mesh.nodes_where([](double, double, double z) { return z == 0.0; }), -1);
      bc.fix_nodes(md.mesh.nodes_where([](double x, double, double) { return x == 0.0; }), 0);
      bc.fix_nodes(md.mesh.nodes_where([](double, double y, double) { return y == 0.0; }), 1);
      bc.surface_load(md.mesh, [&](double, double, double z) {
        return std::abs(z - box.hi[2]) < 1e-9;
      }, 2, -1.0);
    }
    bc.fixes.push_back({md.mesh.num_nodes() / 2, 1, 0.25});
    const std::vector<double> scales = {1.0, 0.5, 2.0};
    gf::System want = base, want_multi = base;
    const auto want_b = ref::apply_bcs(want, bc, {});
    const auto want_cols = ref::apply_bcs(want_multi, bc, scales);
    for (int team : kTeams) {
      geofem::par::TeamScope scope(team);
      const std::string cfg = md.name + " team=" + std::to_string(team);
      gf::System got = base, got_multi = base;
      gf::apply_boundary_conditions(got, bc);
      const auto cols = gf::apply_boundary_conditions_multi(got_multi, bc, scales);
      EXPECT_TRUE(same_bits(got.a.val, want.a.val)) << cfg;
      EXPECT_TRUE(same_bits(got.b, want_b[0])) << cfg;
      EXPECT_TRUE(same_bits(got_multi.a.val, want_multi.a.val)) << cfg;
      ASSERT_EQ(cols.size(), want_cols.size()) << cfg;
      for (std::size_t c = 0; c < cols.size(); ++c)
        EXPECT_TRUE(same_bits(cols[c], want_cols[c])) << cfg << " column " << c;
    }
  }
}

/// Every value a numeric set-up produced, gathered for one memcmp.
struct Bits {
  std::vector<double> d;
  std::vector<int> i;
  void add(const double* p, std::size_t n) { d.insert(d.end(), p, p + n); }
  void add(const std::vector<int>& v) { i.insert(i.end(), v.begin(), v.end()); }
};

void add_factors(Bits& b, const std::vector<gs::DenseLU>& lus) {
  for (const auto& lu : lus) {
    const auto n = static_cast<std::size_t>(lu.size());
    b.add(lu.factor(), n * n);
    b.add(lu.pivots());
  }
}

/// The DJDS values a refill rewrites: diagonal, dense supernode and jagged
/// blocks.
void add_djds(Bits& b, const gr::DJDSMatrix& dj) {
  b.add(dj.diag(0), static_cast<std::size_t>(dj.n()) * gs::kBB);
  for (std::size_t r = 0; r < dj.super_ranges().size(); ++r) {
    const auto& dense = dj.super_dense(static_cast<int>(r));
    b.add(dense.data(), dense.size());
  }
  for (int ch = 0; ch < dj.num_colors() * dj.npe(); ++ch)
    for (const gr::Jagged* p : {&dj.lower(ch), &dj.upper(ch)}) b.add(p->val.data(), p->val.size());
}

/// A copy of base.a with the contact groups of `m` penalized at lambda.
gs::BlockCSR penalized(const gf::System& base, const gm::HexMesh& m, double lambda) {
  gs::BlockCSR a = base.a;
  gc::add_penalty(a, m.contact_groups, lambda);
  return a;
}

/// z = M^-1 r for a fixed r, applied at team 1 (the applies are
/// team-invariant on their own; this isolates the set-up).
std::vector<double> apply_once(const gp::Preconditioner& p, std::size_t ndof) {
  geofem::par::TeamScope one(1);
  std::vector<double> r(ndof), z(ndof);
  for (std::size_t k = 0; k < ndof; ++k) r[k] = std::sin(static_cast<double>(k) + 1.0);
  p.apply(r, z, nullptr, nullptr);
  return z;
}

// The PDJDS plan's cold layout, then refill + factor + pack at two penalty
// values, and the natural-ordering SB-BIC(0) factors at the same two
// matrices: every value, factor, pack and apply is the same at teams 1-4.
TEST(Setup, NumericFactorsBitIdenticalAcrossTeams) {
  const gm::HexMesh mesh = swjapan(8, 6);
  const gf::System base = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
  const auto sn = gc::build_supernodes(base.a.n, mesh.contact_groups);
  const gs::BlockCSR a1 = penalized(base, mesh, 1e6);
  const gs::BlockCSR a2 = penalized(base, mesh, 1e10);
  for (const auto ordering : {geofem::plan::OrderingKind::kPDJDSMC,
                              geofem::plan::OrderingKind::kNatural}) {
    Bits want;
    for (int team : kTeams) {
      geofem::par::TeamScope scope(team);
      geofem::plan::PlanConfig cfg;
      cfg.precond = geofem::plan::PrecondKind::kSBBIC0;
      cfg.ordering = ordering;
      const geofem::plan::SolvePlan plan(a1, sn, cfg);
      Bits got;
      if (plan.djds()) add_djds(got, *plan.djds());
      for (const gs::BlockCSR* a : {&a1, &a2}) {
        const auto prec = plan.numeric(*a);
        if (const auto* dj = plan.djds()) {
          const auto& djbic = dynamic_cast<const gp::DJDSBIC&>(*prec);
          add_djds(got, *dj);
          add_factors(got, djbic.unit_factors());
          for (const auto& pk : djbic.singleton_packs()) {
            got.add(pk.coef.data(), pk.coef.size());
            got.add(pk.start);
            got.add(pk.cnt);
          }
        } else {
          add_factors(got, gp::sb_factor_numeric(*a, *gp::sbbic0_symbolic(*a, sn)->sb));
        }
        const auto z = apply_once(*prec, a->ndof());
        got.add(z.data(), z.size());
      }
      const std::string cfg_name = std::string(plan.djds() ? "pdjds" : "natural") +
                                   " team=" + std::to_string(team);
      if (team == kTeams[0]) {
        want = std::move(got);
        EXPECT_FALSE(want.d.empty()) << cfg_name;
        continue;
      }
      EXPECT_TRUE(same_bits(got.d, want.d)) << cfg_name;
      EXPECT_TRUE(same_bits(got.i, want.i)) << cfg_name;
    }
  }
}

/// Singleton supernodes of `sn`, the first and the last `count` of them.
std::vector<int> singleton_nodes(const gc::Supernodes& sn, std::size_t count) {
  std::vector<int> all;
  for (const auto& mem : sn.members)
    if (mem.size() == 1) all.push_back(mem[0]);
  std::vector<int> out(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
  out.insert(out.end(), all.end() - static_cast<std::ptrdiff_t>(count), all.end());
  return out;
}

// A selective block that is not SPD takes the A_SS fallback (the corrected
// block fails the SPD check); its factor is the same at every team.
TEST(Setup, NonSPDBlockFallbackBitIdenticalAcrossTeams) {
  const gm::HexMesh mesh = swjapan(8, 6);
  const gf::System base = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
  const auto sn = gc::build_supernodes(base.a.n, mesh.contact_groups);
  gs::BlockCSR a = penalized(base, mesh, 1e6);
  for (int node : singleton_nodes(sn, 3)) {
    double* d = a.block(a.diag_entry(node));
    d[0] = -d[0];  // indefinite, still nonsingular
    ASSERT_FALSE(gs::is_spd(d, gs::kB)) << "node " << node;
  }
  const auto sym = gp::sb_symbolic(a, sn);
  Bits want;
  for (int team : kTeams) {
    geofem::par::TeamScope scope(team);
    Bits got;
    add_factors(got, gp::sb_factor_numeric(a, *sym));
    if (team == kTeams[0]) {
      want = std::move(got);
      continue;
    }
    EXPECT_TRUE(same_bits(got.d, want.d)) << "team=" << team;
    EXPECT_TRUE(same_bits(got.i, want.i)) << "team=" << team;
  }
}

// Singular selective blocks at both ends of the elimination order: every
// team raises the serial loop's typed error, out of the parallel region,
// on the natural schedule and on the PDJDS plan's numeric.
TEST(Setup, SingularBlockRaisesTypedErrorAtEveryTeam) {
  const gm::HexMesh mesh = swjapan(8, 6);
  const gf::System base = gf::assemble_elasticity(mesh, {{1.0, 0.3}});
  const auto sn = gc::build_supernodes(base.a.n, mesh.contact_groups);
  const gs::BlockCSR good = penalized(base, mesh, 1e6);
  gs::BlockCSR a = good;
  for (int node : singleton_nodes(sn, 2)) {
    double* d = a.block(a.diag_entry(node));
    std::fill(d, d + gs::kBB, 0.0);
  }
  const auto sym = gp::sb_symbolic(a, sn);
  geofem::plan::PlanConfig cfg;
  cfg.precond = geofem::plan::PrecondKind::kSBBIC0;
  cfg.ordering = geofem::plan::OrderingKind::kPDJDSMC;
  auto error_of = [](auto&& f) -> std::pair<geofem::StatusCode, std::string> {
    try {
      f();
    } catch (const geofem::Error& e) {
      return {e.code(), e.what()};
    }
    return {geofem::StatusCode::kOk, "no error"};
  };
  std::pair<geofem::StatusCode, std::string> want;
  for (int team : kTeams) {
    geofem::par::TeamScope scope(team);
    const auto natural = error_of([&] { (void)gp::sb_factor_numeric(a, *sym); });
    const geofem::plan::SolvePlan plan(good, sn, cfg);
    const auto pdjds = error_of([&] { (void)plan.numeric(a); });
    EXPECT_EQ(natural.first, geofem::StatusCode::kFactorizationFailed) << "team=" << team;
    EXPECT_EQ(pdjds, natural) << "team=" << team;
    if (team == kTeams[0]) want = natural;
    EXPECT_EQ(natural, want) << "team=" << team;
  }
}

TEST(Setup, BuilderRefusesUseAfterTake) {
  gs::BlockCSRBuilder b(3);
  b.add_pattern(0, 1);
  b.finalize_pattern();
  const double blk[9] = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  b.add_block(0, 0, blk);
  const gs::BlockCSR m = b.take();
  EXPECT_EQ(m.nnz_blocks(), 4);  // diagonal of each row plus (0, 1)
  EXPECT_EQ(m.block(m.diag_entry(0))[0], 1.0);
  // Its rows were consumed when the pattern was finalized: a reused builder
  // would hand out a matrix without diagonal blocks, so every call throws.
  EXPECT_THROW(b.add_pattern(1, 2), std::logic_error);
  EXPECT_THROW(b.finalize_pattern(), std::logic_error);
  EXPECT_THROW(b.add_block(0, 0, blk), std::logic_error);
  EXPECT_THROW(b.add_scalar(0, 0, 0, 0, 1.0), std::logic_error);
  EXPECT_THROW((void)b.take(), std::logic_error);
}

}  // namespace
