#include "fem/elasticity.hpp"

#include <cmath>

namespace geofem::fem {

namespace {

// Reference coordinates of the 8 vertices.
constexpr double kXi[8] = {-1, 1, 1, -1, -1, 1, 1, -1};
constexpr double kEta[8] = {-1, -1, 1, 1, -1, -1, 1, 1};
constexpr double kZeta[8] = {-1, -1, -1, -1, 1, 1, 1, 1};

/// dN/d(xi,eta,zeta) for all 8 shape functions at a quadrature point.
void shape_grad(double xi, double eta, double zeta, double dn[8][3]) {
  for (int a = 0; a < 8; ++a) {
    dn[a][0] = 0.125 * kXi[a] * (1 + kEta[a] * eta) * (1 + kZeta[a] * zeta);
    dn[a][1] = 0.125 * kEta[a] * (1 + kXi[a] * xi) * (1 + kZeta[a] * zeta);
    dn[a][2] = 0.125 * kZeta[a] * (1 + kXi[a] * xi) * (1 + kEta[a] * eta);
  }
}

/// Reference-element gradients at the 8 points of the 2x2x2 Gauss rule, point
/// q = 4*qx + 2*qy + qz at (xi, eta, zeta) = (±g, ±g, ±g); the same for every
/// element, so they are computed once.
struct GaussGrads {
  double dn[8][8][3];
  GaussGrads() {
    const double g = 1.0 / std::sqrt(3.0);
    for (int qx = 0; qx < 2; ++qx)
      for (int qy = 0; qy < 2; ++qy)
        for (int qz = 0; qz < 2; ++qz)
          shape_grad(qx ? g : -g, qy ? g : -g, qz ? g : -g, dn[4 * qx + 2 * qy + qz]);
  }
};

const GaussGrads& gauss_grads() {
  static const GaussGrads t;
  return t;
}

/// Jacobian of the isoparametric map, its determinant and inverse.
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

}  // namespace

std::array<double, 8> hex_shape(double xi, double eta, double zeta) {
  std::array<double, 8> n{};
  for (int a = 0; a < 8; ++a)
    n[static_cast<std::size_t>(a)] =
        0.125 * (1 + kXi[a] * xi) * (1 + kEta[a] * eta) * (1 + kZeta[a] * zeta);
  return n;
}

void hex_stiffness(const std::array<std::array<double, 3>, 8>& xyz, const Material& mat,
                   double ke[24 * 24]) {
  // Isotropic elasticity constants (Lame).
  const double e = mat.youngs, nu = mat.poisson;
  const double lambda = e * nu / ((1 + nu) * (1 - 2 * nu));
  const double mu = e / (2 * (1 + nu));

  // Per Gauss point q: det J and the physical gradients grad N_a with their
  // lambda and mu multiples, stored [a][d][q] so the q loop below is unit
  // stride.
  const auto& gg = gauss_grads();
  double det[8], gn[8][3][8], lg[8][3][8], mg[8][3][8];
  for (int q = 0; q < 8; ++q) {
    const double(&dn)[8][3] = gg.dn[q];
    double jinv[3][3];
    det[q] = jacobian(xyz, dn, jinv);
    for (int a = 0; a < 8; ++a)
      for (int d = 0; d < 3; ++d) {
        const double v = jinv[d][0] * dn[a][0] + jinv[d][1] * dn[a][1] + jinv[d][2] * dn[a][2];
        gn[a][d][q] = v;
        lg[a][d][q] = lambda * v;
        mg[a][d][q] = mu * v;
      }
  }

  // K_ab(r,c) = sum_q det_q * (lambda * gn_a[r] * gn_b[c] + mu * gn_a[c] * gn_b[r]
  //                            + delta_rc * mu * sum_d gn_a[d] gn_b[d]),
  // each of the 9 entries of a block summed from 0.0 over q in order, in a
  // register, and stored once. K_ab and K_ba^T are computed separately: they
  // agree only to rounding.
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b) {
      double acc[3][3] = {};
      for (int q = 0; q < 8; ++q) {
        const double mdot = mu * (gn[a][0][q] * gn[b][0][q] + gn[a][1][q] * gn[b][1][q] +
                                  gn[a][2][q] * gn[b][2][q]);
        for (int r = 0; r < 3; ++r)
          for (int c = 0; c < 3; ++c) {
            double v = lg[a][r][q] * gn[b][c][q] + mg[a][c][q] * gn[b][r][q];
            if (r == c) v += mdot;
            acc[r][c] += v * det[q];
          }
      }
      for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) ke[(3 * a + r) * 24 + (3 * b + c)] = acc[r][c];
    }
}

double hex_volume(const std::array<std::array<double, 3>, 8>& xyz) {
  const auto& gg = gauss_grads();
  double vol = 0.0;
  for (int q = 0; q < 8; ++q) {
    double jinv[3][3];
    vol += jacobian(xyz, gg.dn[q], jinv);
  }
  return vol;
}

}  // namespace geofem::fem
