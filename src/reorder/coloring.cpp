#include "reorder/coloring.hpp"

#include <algorithm>
#include <numeric>

#include "sparse/pattern.hpp"
#include "util/check.hpp"

namespace geofem::reorder {

std::vector<std::vector<int>> Coloring::members() const {
  std::vector<std::vector<int>> m(static_cast<std::size_t>(num_colors));
  for (int v = 0; v < static_cast<int>(color_of.size()); ++v)
    m[static_cast<std::size_t>(color_of[static_cast<std::size_t>(v)])].push_back(v);
  return m;
}

bool Coloring::valid_for(const sparse::Graph& g) const {
  if (static_cast<int>(color_of.size()) != g.n) return false;
  for (int v = 0; v < g.n; ++v) {
    const int c = color_of[static_cast<std::size_t>(v)];
    if (c < 0 || c >= num_colors) return false;
    for (int e = g.xadj[v]; e < g.xadj[v + 1]; ++e)
      if (color_of[static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)])] == c &&
          g.adjncy[static_cast<std::size_t>(e)] != v)
        return false;
  }
  return true;
}

LevelOrder cuthill_mckee(const sparse::Graph& g) {
  LevelOrder lo;
  lo.order.reserve(static_cast<std::size_t>(g.n));
  lo.levels.push_back(0);
  std::vector<char> visited(static_cast<std::size_t>(g.n), 0);
  std::vector<int> degree(static_cast<std::size_t>(g.n));
  for (int v = 0; v < g.n; ++v) degree[static_cast<std::size_t>(v)] = g.xadj[v + 1] - g.xadj[v];

  for (int seed_scan = 0; seed_scan < g.n; ++seed_scan) {
    if (visited[static_cast<std::size_t>(seed_scan)]) continue;
    // Start each component at a minimum-degree vertex reachable from the scan
    // position (cheap pseudo-peripheral choice).
    int seed = seed_scan;
    for (int v = seed_scan; v < g.n; ++v)
      if (!visited[static_cast<std::size_t>(v)] &&
          degree[static_cast<std::size_t>(v)] < degree[static_cast<std::size_t>(seed)])
        seed = v;

    std::vector<int> frontier{seed};
    visited[static_cast<std::size_t>(seed)] = 1;
    while (!frontier.empty()) {
      std::sort(frontier.begin(), frontier.end(), [&](int a, int b) {
        return degree[static_cast<std::size_t>(a)] != degree[static_cast<std::size_t>(b)]
                   ? degree[static_cast<std::size_t>(a)] < degree[static_cast<std::size_t>(b)]
                   : a < b;
      });
      lo.order.insert(lo.order.end(), frontier.begin(), frontier.end());
      lo.levels.push_back(static_cast<int>(lo.order.size()));
      std::vector<int> next;
      for (int v : frontier) {
        for (int e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
          const int w = g.adjncy[static_cast<std::size_t>(e)];
          if (!visited[static_cast<std::size_t>(w)]) {
            visited[static_cast<std::size_t>(w)] = 1;
            next.push_back(w);
          }
        }
      }
      frontier = std::move(next);
    }
  }
  return lo;
}

std::vector<int> rcm_permutation(const sparse::Graph& g) {
  const LevelOrder lo = cuthill_mckee(g);
  std::vector<int> perm(static_cast<std::size_t>(g.n));
  for (int pos = 0; pos < g.n; ++pos)
    perm[static_cast<std::size_t>(lo.order[static_cast<std::size_t>(pos)])] = g.n - 1 - pos;
  return perm;
}

namespace {

/// Greedy repair-capable color assignment: try colors cyclically starting at
/// `start`, return the first not used by a neighbour.
int first_free_color(const sparse::Graph& g, const std::vector<int>& color_of, int v, int start,
                     int ncolors) {
  for (int t = 0; t < ncolors; ++t) {
    const int c = (start + t) % ncolors;
    bool clash = false;
    for (int e = g.xadj[v]; e < g.xadj[v + 1] && !clash; ++e)
      clash = color_of[static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)])] == c;
    if (!clash) return c;
  }
  return -1;
}

}  // namespace

Coloring multicolor(const sparse::Graph& g, int target_colors) {
  GEOFEM_CHECK(target_colors >= 1, "need >= 1 color");
  Coloring col;
  col.color_of.assign(static_cast<std::size_t>(g.n), -1);
  int ncolors = target_colors;
  int cursor = 0;
  for (int v = 0; v < g.n; ++v) {
    int c = first_free_color(g, col.color_of, v, cursor % ncolors, ncolors);
    if (c < 0) c = ncolors++;  // graph forces an extra color
    col.color_of[static_cast<std::size_t>(v)] = c;
    ++cursor;
  }
  col.num_colors = ncolors;
  return col;
}

Coloring cm_rcm(const sparse::Graph& g, int target_colors) {
  GEOFEM_CHECK(target_colors >= 1, "need >= 1 color");
  const LevelOrder lo = cuthill_mckee(g);
  Coloring col;
  col.color_of.assign(static_cast<std::size_t>(g.n), -1);
  int ncolors = target_colors;

  const int nlevels = static_cast<int>(lo.levels.size()) - 1;
  // RCM: reverse the level sequence, then color level L with L mod C.
  for (int lev = 0; lev < nlevels; ++lev) {
    const int rlev = nlevels - 1 - lev;
    const int want = lev % ncolors;
    for (int p = lo.levels[static_cast<std::size_t>(rlev)];
         p < lo.levels[static_cast<std::size_t>(rlev) + 1]; ++p) {
      const int v = lo.order[static_cast<std::size_t>(p)];
      // Repair pass folded in: if a same-level neighbour already holds `want`
      // (possible on 27-point stencils), take the next conflict-free color.
      int c = first_free_color(g, col.color_of, v, want, ncolors);
      if (c < 0) c = ncolors++;
      col.color_of[static_cast<std::size_t>(v)] = c;
    }
  }
  col.num_colors = ncolors;
  return col;
}

sparse::Graph quotient_graph(const sparse::Graph& g, const std::vector<int>& vertex_to_super,
                             int num_supers) {
  GEOFEM_CHECK(static_cast<int>(vertex_to_super.size()) == g.n, "map size mismatch");
  auto super = [&](int v) { return vertex_to_super[static_cast<std::size_t>(v)]; };
  // Members of each supernode, ascending, by counting sort.
  std::vector<int> mem_ptr(static_cast<std::size_t>(num_supers) + 1, 0);
  std::vector<int> mem(static_cast<std::size_t>(g.n));
  for (int s : vertex_to_super) ++mem_ptr[static_cast<std::size_t>(s) + 1];
  std::partial_sum(mem_ptr.begin(), mem_ptr.end(), mem_ptr.begin());
  {
    std::vector<int> next(mem_ptr.begin(), mem_ptr.end() - 1);
    for (int v = 0; v < g.n; ++v)
      mem[static_cast<std::size_t>(next[static_cast<std::size_t>(super(v))]++)] = v;
  }
  sparse::Graph q;
  q.n = num_supers;
  sparse::mark_and_sort_rows(
      num_supers, num_supers,
      [&](int s, auto&& emit) {
        for (int p = mem_ptr[static_cast<std::size_t>(s)];
             p < mem_ptr[static_cast<std::size_t>(s) + 1]; ++p) {
          const int v = mem[static_cast<std::size_t>(p)];
          for (int e = g.xadj[v]; e < g.xadj[v + 1]; ++e) {
            const int sw = super(g.adjncy[static_cast<std::size_t>(e)]);
            if (sw != s) emit(sw);
          }
        }
      },
      q.xadj, q.adjncy);
  return q;
}

Coloring lift_coloring(const Coloring& super_coloring, const std::vector<int>& vertex_to_super,
                       int num_vertices) {
  Coloring col;
  col.num_colors = super_coloring.num_colors;
  col.color_of.resize(static_cast<std::size_t>(num_vertices));
  for (int v = 0; v < num_vertices; ++v)
    col.color_of[static_cast<std::size_t>(v)] =
        super_coloring.color_of[static_cast<std::size_t>(vertex_to_super[static_cast<std::size_t>(v)])];
  return col;
}

}  // namespace geofem::reorder
