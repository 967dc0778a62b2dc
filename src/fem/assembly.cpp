#include "fem/assembly.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "par/par.hpp"
#include "sparse/pattern.hpp"
#include "util/check.hpp"

namespace geofem::fem {

void BoundaryConditions::fix_nodes(const std::vector<int>& nodes, int comp, double value) {
  for (int n : nodes) {
    if (comp < 0) {
      for (int c = 0; c < 3; ++c) fixes.push_back({n, c, value});
    } else {
      fixes.push_back({n, comp, value});
    }
  }
}

void BoundaryConditions::surface_load(
    const mesh::HexMesh& m, const std::function<bool(double, double, double)>& on_surface,
    int comp, double q) {
  // Local faces of the standard hexahedron.
  static const int faces[6][4] = {{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                  {2, 3, 7, 6}, {1, 2, 6, 5}, {3, 0, 4, 7}};
  auto on = [&](int node) {
    const auto& c = m.coords[static_cast<std::size_t>(node)];
    return on_surface(c[0], c[1], c[2]);
  };
  for (const auto& h : m.hexes) {
    for (const auto& f : faces) {
      const int n0 = h[static_cast<std::size_t>(f[0])], n1 = h[static_cast<std::size_t>(f[1])],
                n2 = h[static_cast<std::size_t>(f[2])], n3 = h[static_cast<std::size_t>(f[3])];
      if (!(on(n0) && on(n1) && on(n2) && on(n3))) continue;
      // Bilinear quad area via the two triangles (n0,n1,n2) and (n0,n2,n3).
      auto area3 = [&](int a, int b, int c) {
        const auto &pa = m.coords[static_cast<std::size_t>(a)],
                   &pb = m.coords[static_cast<std::size_t>(b)],
                   &pc = m.coords[static_cast<std::size_t>(c)];
        const double u[3] = {pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]};
        const double v[3] = {pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]};
        const double cx = u[1] * v[2] - u[2] * v[1];
        const double cy = u[2] * v[0] - u[0] * v[2];
        const double cz = u[0] * v[1] - u[1] * v[0];
        return 0.5 * std::sqrt(cx * cx + cy * cy + cz * cz);
      };
      const double area = area3(n0, n1, n2) + area3(n0, n2, n3);
      const double per_node = q * area / 4.0;
      for (int v : {n0, n1, n2, n3}) loads.push_back({v, comp, per_node});
    }
  }
}

void BoundaryConditions::body_force(const mesh::HexMesh& m, int comp, double f) {
  // Element volumes on the caller's team, then the loads in element order.
  std::vector<double> per_node(m.hexes.size());
  par::parallel_for(m.num_elements(), par::threads(), 0, [&](std::ptrdiff_t e) {
    const auto& h = m.hexes[static_cast<std::size_t>(e)];
    std::array<std::array<double, 3>, 8> xyz;
    for (int v = 0; v < 8; ++v) xyz[static_cast<std::size_t>(v)] =
        m.coords[static_cast<std::size_t>(h[static_cast<std::size_t>(v)])];
    per_node[static_cast<std::size_t>(e)] = f * hex_volume(xyz) / 8.0;
  });
  loads.reserve(loads.size() + 8 * m.hexes.size());
  for (std::size_t e = 0; e < m.hexes.size(); ++e)
    for (int v : m.hexes[e]) loads.push_back({v, comp, per_node[e]});
}

sparse::BlockCSR elasticity_pattern(const mesh::HexMesh& m) {
  const int nn = m.num_nodes();
  const int ne = m.num_elements();
  const int ncliques = ne + static_cast<int>(m.contact_groups.size());

  // Cliques: the elements, then the contact groups. Each row is its node
  // plus every node of every clique containing it, so the pattern comes from
  // node -> clique incidence, built by counting sort.
  auto clique = [&](int c) -> std::span<const int> {
    if (c < ne) return m.hexes[static_cast<std::size_t>(c)];
    return m.contact_groups[static_cast<std::size_t>(c - ne)];
  };
  std::vector<int> inc_ptr(static_cast<std::size_t>(nn) + 1, 0);
  for (int c = 0; c < ncliques; ++c)
    for (int v : clique(c)) {
      GEOFEM_CHECK(v >= 0 && v < nn, "pattern index out of range");
      ++inc_ptr[static_cast<std::size_t>(v) + 1];
    }
  std::partial_sum(inc_ptr.begin(), inc_ptr.end(), inc_ptr.begin());
  std::vector<int> inc(static_cast<std::size_t>(inc_ptr.back()));
  {
    std::vector<int> next(inc_ptr.begin(), inc_ptr.end() - 1);
    for (int c = 0; c < ncliques; ++c)
      for (int v : clique(c)) inc[static_cast<std::size_t>(next[static_cast<std::size_t>(v)]++)] =
          c;
  }

  sparse::BlockCSR pat;
  pat.n = nn;
  sparse::mark_and_sort_rows(
      nn, nn,
      [&](int i, auto&& emit) {
        emit(i);  // the diagonal block is always present
        for (int p = inc_ptr[static_cast<std::size_t>(i)];
             p < inc_ptr[static_cast<std::size_t>(i) + 1]; ++p)
          for (int j : clique(inc[static_cast<std::size_t>(p)])) emit(j);
      },
      pat.rowptr, pat.colind);
  pat.val.assign(pat.colind.size() * sparse::kBB, 0.0);
  return pat;
}

void add_element_stiffness(const mesh::HexMesh& m, const std::vector<Material>& materials,
                           sparse::BlockCSR& mat) {
  GEOFEM_CHECK(!materials.empty(), "need at least one material");
  GEOFEM_CHECK(mat.n == m.num_nodes(), "add_element_stiffness: matrix size mismatch");
  const int ne = m.num_elements();
  // Row-owner scatter: part p owns a contiguous range of rows. It walks the
  // elements in order, computes the matrix of every element with a vertex in
  // its range and adds only into its own rows, in (element, a, b) order. So
  // every entry receives its contributions in element order, each added to
  // the running sum, whichever part owns it and however many parts there
  // are. An element on a range boundary is computed by each part it
  // touches, from the same inputs and so to the same bits.
  const int parts = par::threads();
  par::parallel_for(parts, parts, 0, [&](std::ptrdiff_t part) {
    const par::Range own =
        par::static_range(static_cast<std::size_t>(mat.n), parts, static_cast<int>(part));
    const auto owns = [&](int node) {
      return static_cast<std::size_t>(node) >= own.begin &&
             static_cast<std::size_t>(node) < own.end;
    };
    double ke[24 * 24];
    for (int e = 0; e < ne; ++e) {
      const auto& h = m.hexes[static_cast<std::size_t>(e)];
      if (std::none_of(h.begin(), h.end(), owns)) continue;
      std::array<std::array<double, 3>, 8> xyz;
      for (int v = 0; v < 8; ++v) xyz[static_cast<std::size_t>(v)] =
          m.coords[static_cast<std::size_t>(h[static_cast<std::size_t>(v)])];
      const int zid = m.zone.empty() ? 0 : m.zone[static_cast<std::size_t>(e)];
      const Material& mat_e = materials[static_cast<std::size_t>(zid) < materials.size()
                                            ? static_cast<std::size_t>(zid)
                                            : 0];
      hex_stiffness(xyz, mat_e, ke);
      // The element's local vertices by ascending node id: one merge walk of
      // row h[a] then finds the entries of all 8 column nodes.
      std::array<int, 8> by_node;
      std::iota(by_node.begin(), by_node.end(), 0);
      std::sort(by_node.begin(), by_node.end(), [&](int x, int y) {
        return h[static_cast<std::size_t>(x)] < h[static_cast<std::size_t>(y)];
      });
      for (int a = 0; a < 8; ++a) {
        const int row = h[static_cast<std::size_t>(a)];
        if (!owns(row)) continue;
        int entry[8];
        int p = mat.rowptr[static_cast<std::size_t>(row)];
        const int end = mat.rowptr[static_cast<std::size_t>(row) + 1];
        for (int b : by_node) {
          while (p < end &&
                 mat.colind[static_cast<std::size_t>(p)] != h[static_cast<std::size_t>(b)])
            ++p;
          GEOFEM_CHECK(p < end, "block not in pattern");
          entry[b] = p;
        }
        for (int b = 0; b < 8; ++b) {
          double* dst = mat.block(entry[b]);
          for (int r = 0; r < 3; ++r)
            for (int c = 0; c < 3; ++c) dst[3 * r + c] += ke[(3 * a + r) * 24 + (3 * b + c)];
        }
      }
    }
  });
}

System assemble_elasticity(const mesh::HexMesh& m, const std::vector<Material>& materials) {
  System sys;
  sys.a = elasticity_pattern(m);
  add_element_stiffness(m, materials, sys.a);
  sys.b.assign(sys.a.ndof(), 0.0);
  return sys;
}

namespace {

/// The fixed DOFs of `bc` on `a`: a flag and the prescribed value per DOF,
/// and per node whether any of its DOFs is fixed.
struct FixedDofs {
  std::vector<char> dof;
  std::vector<double> value;
  std::vector<char> node;
};

FixedDofs mark_fixed(const sparse::BlockCSR& a, const BoundaryConditions& bc) {
  FixedDofs fx{std::vector<char>(a.ndof(), 0), std::vector<double>(a.ndof(), 0.0),
               std::vector<char>(static_cast<std::size_t>(a.n), 0)};
  for (const auto& f : bc.fixes) {
    GEOFEM_CHECK(f.node >= 0 && f.node < a.n && f.comp >= 0 && f.comp < 3, "bad fix");
    const std::size_t d = static_cast<std::size_t>(f.node) * 3 + static_cast<std::size_t>(f.comp);
    fx.dof[d] = 1;
    fx.value[d] = f.value;
    fx.node[static_cast<std::size_t>(f.node)] = 1;
  }
  return fx;
}

}  // namespace

void apply_boundary_conditions(System& sys, const BoundaryConditions& bc) {
  auto& a = sys.a;
  auto& b = sys.b;
  GEOFEM_CHECK(b.size() == a.ndof(), "system size mismatch");

  for (const auto& l : bc.loads) {
    GEOFEM_CHECK(l.node >= 0 && l.node < a.n && l.comp >= 0 && l.comp < 3, "bad load");
    b[static_cast<std::size_t>(l.node) * 3 + static_cast<std::size_t>(l.comp)] += l.value;
  }

  const auto [fixed, fixval, fixed_node] = mark_fixed(a, bc);

  // Symmetric elimination. For each stored block (i,j), scalar entry
  // (r,c) = DOF (3i+r, 3j+c):
  //  * both free: untouched
  //  * column fixed: b_row -= a * value, then zero
  //  * row fixed, col free: zero (the transpose pass handles the RHS)
  //  * both fixed: keep only the diagonal scalar
  // so a block between two nodes with no fixed DOF is untouched and skipped.
  // Each block row writes only its own blocks and its own RHS rows, so the
  // rows run on the caller's team with the serial arithmetic.
  par::parallel_for(a.n, par::threads(), 0, [&](std::ptrdiff_t pi) {
    const int i = static_cast<int>(pi);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const int j = a.colind[e];
      if (!fixed_node[static_cast<std::size_t>(i)] && !fixed_node[static_cast<std::size_t>(j)])
        continue;
      double* blk = a.block(e);
      for (int r = 0; r < 3; ++r) {
        const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
        for (int c = 0; c < 3; ++c) {
          const std::size_t col = static_cast<std::size_t>(j) * 3 + static_cast<std::size_t>(c);
          double& v = blk[3 * r + c];
          if (row == col) continue;  // diagonal scalar handled below
          if (fixed[col] && !fixed[row]) b[row] -= v * fixval[col];
          if (fixed[row] || fixed[col]) v = 0.0;
        }
      }
    }
    // Fixed diagonal scalars: keep original magnitude (conditioning-neutral),
    // set RHS so the solve returns exactly the prescribed value.
    if (!fixed_node[static_cast<std::size_t>(i)]) return;
    double* d = a.block(a.diag_entry(i));
    for (int r = 0; r < 3; ++r) {
      const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
      if (!fixed[row]) continue;
      if (d[3 * r + r] == 0.0) d[3 * r + r] = 1.0;
      b[row] = d[3 * r + r] * fixval[row];
    }
  });
}

std::vector<std::vector<double>> apply_boundary_conditions_multi(
    System& sys, const BoundaryConditions& bc, const std::vector<double>& load_scales) {
  auto& a = sys.a;
  GEOFEM_CHECK(!load_scales.empty(), "apply_boundary_conditions_multi: no columns");
  GEOFEM_CHECK(sys.b.size() == a.ndof(), "system size mismatch");
  const std::size_t k = load_scales.size();

  std::vector<std::vector<double>> cols(k, sys.b);
  for (std::size_t c = 0; c < k; ++c) {
    // Same arithmetic as the single-RHS path with a pre-scaled load list:
    // the product l.value * scale is formed first, then added.
    for (const auto& l : bc.loads) {
      GEOFEM_CHECK(l.node >= 0 && l.node < a.n && l.comp >= 0 && l.comp < 3, "bad load");
      cols[c][static_cast<std::size_t>(l.node) * 3 + static_cast<std::size_t>(l.comp)] +=
          l.value * load_scales[c];
    }
  }

  const auto [fixed, fixval, fixed_node] = mark_fixed(a, bc);

  // One elimination sweep: every column's RHS update reads the matrix value
  // BEFORE it is zeroed, exactly as k independent single-RHS sweeps would.
  // Rows run on the caller's team and skip untouched blocks, as in the
  // single-RHS sweep.
  par::parallel_for(a.n, par::threads(), 0, [&](std::ptrdiff_t pi) {
    const int i = static_cast<int>(pi);
    for (int e = a.rowptr[i]; e < a.rowptr[i + 1]; ++e) {
      const int j = a.colind[e];
      if (!fixed_node[static_cast<std::size_t>(i)] && !fixed_node[static_cast<std::size_t>(j)])
        continue;
      double* blk = a.block(e);
      for (int r = 0; r < 3; ++r) {
        const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
        for (int c = 0; c < 3; ++c) {
          const std::size_t col = static_cast<std::size_t>(j) * 3 + static_cast<std::size_t>(c);
          double& v = blk[3 * r + c];
          if (row == col) continue;
          if (fixed[col] && !fixed[row])
            for (std::size_t cc = 0; cc < k; ++cc) cols[cc][row] -= v * fixval[col];
          if (fixed[row] || fixed[col]) v = 0.0;
        }
      }
    }
    if (!fixed_node[static_cast<std::size_t>(i)]) return;
    double* d = a.block(a.diag_entry(i));
    for (int r = 0; r < 3; ++r) {
      const std::size_t row = static_cast<std::size_t>(i) * 3 + static_cast<std::size_t>(r);
      if (!fixed[row]) continue;
      if (d[3 * r + r] == 0.0) d[3 * r + r] = 1.0;
      for (std::size_t cc = 0; cc < k; ++cc) cols[cc][row] = d[3 * r + r] * fixval[row];
    }
  });
  return cols;
}

}  // namespace geofem::fem
