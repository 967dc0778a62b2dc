#pragma once

#include <functional>
#include <vector>

#include "fem/elasticity.hpp"
#include "mesh/hex_mesh.hpp"
#include "sparse/block_csr.hpp"

namespace geofem::fem {

/// Boundary conditions in nodal form. Helpers below translate surface
/// predicates (the paper's "symmetry at x=0", "fixed at z=0", "uniform load at
/// z=Zmax") into these lists.
struct BoundaryConditions {
  struct Fix {
    int node;
    int comp;      ///< 0=x, 1=y, 2=z
    double value;  ///< prescribed displacement (0 in all paper cases)
  };
  struct Load {
    int node;
    int comp;
    double value;  ///< nodal force
  };
  std::vector<Fix> fixes;
  std::vector<Load> loads;

  /// Fix component `comp` (or all three if comp < 0) at the selected nodes.
  void fix_nodes(const std::vector<int>& nodes, int comp, double value = 0.0);

  /// Consistent nodal loads for a uniform traction `q` in direction `comp`
  /// applied on the element faces whose four vertices all satisfy `on_surface`
  /// (quarter of the bilinear face area per vertex).
  void surface_load(const mesh::HexMesh& m,
                    const std::function<bool(double, double, double)>& on_surface, int comp,
                    double q);

  /// Body force per unit volume in direction `comp` (lumped: volume/8 per
  /// element vertex), as used by the Southwest Japan model (-1.0 in z).
  void body_force(const mesh::HexMesh& m, int comp, double f);
};

/// Assembled linear system K u = f (before contact penalties / Dirichlet).
struct System {
  sparse::BlockCSR a;
  std::vector<double> b;
};

/// Block sparsity pattern of the stiffness matrix, values zero: each node is
/// coupled with itself and with every node it shares an element or a contact
/// group with, columns ascending. Built from node -> element/group incidence
/// with a per-row marker, so no duplicate is ever inserted, into exact-size
/// arrays.
sparse::BlockCSR elasticity_pattern(const mesh::HexMesh& m);

/// Add every element stiffness matrix into `a`, whose pattern must hold all
/// element couplings (elasticity_pattern). `materials` is indexed by element
/// zone id (ids past the end use entry 0). Contributions are added in
/// (element, a, b) order, so each entry sums its elements in element order.
/// Runs on the caller's team (par::threads()), each thread adding into the
/// rows of its own node range only, so the values are the same for every
/// team size.
void add_element_stiffness(const mesh::HexMesh& m, const std::vector<Material>& materials,
                           sparse::BlockCSR& a);

/// Assemble the elastic stiffness matrix over the mesh: elasticity_pattern()
/// then add_element_stiffness(). `materials` is indexed by element zone id (a
/// single entry applies everywhere). The sparsity
/// pattern also includes all intra-contact-group couplings so penalty blocks
/// can be added in place afterwards.
System assemble_elasticity(const mesh::HexMesh& m, const std::vector<Material>& materials);

/// Apply loads to b and Dirichlet fixes to (a, b) by symmetric elimination:
/// row/column zeroed, diagonal entry kept at its original scale, RHS adjusted
/// so the fixed value is reproduced exactly. Preserves SPD. The elimination
/// runs one block row per iteration on the caller's team (par::threads()).
void apply_boundary_conditions(System& sys, const BoundaryConditions& bc);

/// Batched variant for the multi-RHS solve path (DESIGN.md §5k): ONE
/// symmetric elimination sweep of the matrix serving k right-hand sides at
/// once. Column c starts from sys.b with every load scaled by
/// load_scales[c] (fixes are shared — Dirichlet data does not scale with the
/// load factor). The elimination updates every column from the SAME
/// pre-zeroing matrix values, so each returned column is bit-identical to
/// what apply_boundary_conditions would produce for that load scale alone.
/// On return sys.a is eliminated exactly as the single-RHS path leaves it;
/// sys.b is left untouched (the per-column RHS live in the return value).
std::vector<std::vector<double>> apply_boundary_conditions_multi(
    System& sys, const BoundaryConditions& bc, const std::vector<double>& load_scales);

}  // namespace geofem::fem
