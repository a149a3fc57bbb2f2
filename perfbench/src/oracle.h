// Independent oracles for the benchmark's result checks. They share no code
// with the program's grouping: an ε-grid with its own union-find for
// connected components (SGB-Any), a pairwise ε-clique checker (SGB-All),
// and an exact ε-pair counter. Points are indexed by row id.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum class Dist { kL2, kLInf };

template <size_t D>
using Pt = std::array<double, D>;

template <size_t D>
bool Within(const Pt<D>& a, const Pt<D>& b, Dist dist, double eps) {
  if (dist == Dist::kL2) {
    double s = 0;
    for (size_t i = 0; i < D; ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
    return s <= eps * eps;
  }
  for (size_t i = 0; i < D; ++i) {
    if (std::fabs(a[i] - b[i]) > eps) return false;
  }
  return true;
}

/// Uniform grid with cell side a hair above ε (so rounding in the cell
/// division cannot separate two points exactly ε apart by two cells): every
/// ε-neighbour of a point lies in its own or an adjacent cell.
template <size_t D>
class EpsGrid {
 public:
  EpsGrid(const std::vector<Pt<D>>& pts, double eps)
      : pts_(pts), eps_(eps), cell_(eps * (1 + 1e-9)) {
    for (size_t i = 0; i < pts.size(); ++i) cells_[Cell(pts[i])].push_back(i);
  }

  /// Calls fn(j) for every j < i with pts[j] within ε of pts[i].
  template <typename Fn>
  void ForEachEarlierNeighbour(size_t i, Dist dist, Fn&& fn) const {
    const std::array<int64_t, D> c = Cell(pts_[i]);
    std::array<int64_t, D> n{};
    size_t combos = 1;
    for (size_t d = 0; d < D; ++d) combos *= 3;
    for (size_t k = 0; k < combos; ++k) {
      size_t r = k;
      for (size_t d = 0; d < D; ++d) {
        n[d] = c[d] + static_cast<int64_t>(r % 3) - 1;
        r /= 3;
      }
      auto it = cells_.find(n);
      if (it == cells_.end()) continue;
      for (size_t j : it->second) {
        if (j < i && Within<D>(pts_[i], pts_[j], dist, eps_)) fn(j);
      }
    }
  }

 private:
  std::array<int64_t, D> Cell(const Pt<D>& p) const {
    std::array<int64_t, D> c{};
    for (size_t d = 0; d < D; ++d) {
      c[d] = static_cast<int64_t>(std::floor(p[d] / cell_));
    }
    return c;
  }
  struct CellHash {
    size_t operator()(const std::array<int64_t, D>& c) const {
      uint64_t h = 0x12345;
      for (size_t d = 0; d < D; ++d) {
        h = (h ^ static_cast<uint64_t>(c[d])) * 0x100000001b3ULL;
        h ^= h >> 29;
      }
      return static_cast<size_t>(h);
    }
  };

  const std::vector<Pt<D>>& pts_;
  double eps_;
  double cell_;
  std::unordered_map<std::array<int64_t, D>, std::vector<size_t>, CellHash>
      cells_;
};

class DisjointSets {
 public:
  explicit DisjointSets(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Join(size_t a, size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<size_t> parent_;
};

/// Component root of every point under the ε-neighbour relation.
template <size_t D>
std::vector<size_t> Components(const std::vector<Pt<D>>& pts, Dist dist,
                               double eps) {
  EpsGrid<D> grid(pts, eps);
  DisjointSets sets(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    grid.ForEachEarlierNeighbour(i, dist, [&](size_t j) { sets.Join(i, j); });
  }
  std::vector<size_t> root(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) root[i] = sets.Find(i);
  return root;
}

/// Exact number of unordered pairs within ε.
template <size_t D>
uint64_t CountPairs(const std::vector<Pt<D>>& pts, Dist dist, double eps) {
  EpsGrid<D> grid(pts, eps);
  uint64_t pairs = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    grid.ForEachEarlierNeighbour(i, dist, [&](size_t) { ++pairs; });
  }
  return pairs;
}

using Groups = std::vector<std::vector<int64_t>>;

/// Every id is a valid row id and appears in at most one group.
inline std::string CheckDisjoint(const Groups& groups, size_t n,
                                 size_t* members) {
  std::vector<char> seen(n, 0);
  *members = 0;
  for (const auto& g : groups) {
    if (g.empty()) return "empty group";
    for (int64_t id : g) {
      if (id < 0 || static_cast<size_t>(id) >= n) return "unknown row id";
      if (seen[static_cast<size_t>(id)]++) return "row in two groups";
      ++*members;
    }
  }
  return "";
}

/// SGB-Any: the groups are exactly the ε-connected components.
template <size_t D>
std::string CheckAny(const std::vector<Pt<D>>& pts, const Groups& groups,
                     Dist dist, double eps) {
  size_t members = 0;
  std::string err = CheckDisjoint(groups, pts.size(), &members);
  if (!err.empty()) return err;
  if (members != pts.size()) return "groups do not cover every row";
  const std::vector<size_t> root = Components<D>(pts, dist, eps);
  std::unordered_map<size_t, size_t> component_size;
  for (size_t r : root) ++component_size[r];
  if (component_size.size() != groups.size()) {
    return "group count " + std::to_string(groups.size()) +
           " != component count " + std::to_string(component_size.size());
  }
  for (const auto& g : groups) {
    const size_t r = root[static_cast<size_t>(g[0])];
    for (int64_t id : g) {
      if (root[static_cast<size_t>(id)] != r) return "group spans two components";
    }
    if (component_size[r] != g.size()) return "group is part of a component";
  }
  return "";
}

/// SGB-All: every group is an ε-clique; the groups cover every row
/// (JOIN-ANY, FORM-NEW-GROUP) or at most every row (ELIMINATE).
template <size_t D>
std::string CheckAll(const std::vector<Pt<D>>& pts, const Groups& groups,
                     Dist dist, double eps, bool eliminate) {
  size_t members = 0;
  std::string err = CheckDisjoint(groups, pts.size(), &members);
  if (!err.empty()) return err;
  if (!eliminate && members != pts.size()) return "groups do not cover every row";
  for (const auto& g : groups) {
    for (size_t a = 0; a < g.size(); ++a) {
      for (size_t b = 0; b < a; ++b) {
        if (!Within<D>(pts[static_cast<size_t>(g[a])],
                       pts[static_cast<size_t>(g[b])], dist, eps)) {
          return "group member beyond epsilon of another (rows " +
                 std::to_string(g[a]) + ", " + std::to_string(g[b]) + ")";
        }
      }
    }
  }
  return "";
}

/// Compares a statement result with the benchmark's own hash-map result.
/// Cells that both parse as numbers match within a relative 1e-5 (results
/// print doubles with six significant digits); other cells match exactly.
/// With `ordered` false both sides are sorted first. Empty when equal.
std::string CompareRows(std::vector<std::vector<std::string>> expected,
                        std::vector<std::vector<std::string>> actual,
                        bool ordered);

/// Runs each checker on a valid grouping and on three corruptions of it
/// (two groups merged, one row dropped, one member moved beyond ε) and
/// runs the row comparator on a hash-map aggregate and a join result with a
/// changed count and a dropped row; returns a description of every case where a checker misjudged; empty
/// when all judgements are right.
std::string SelfTestOracles();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
