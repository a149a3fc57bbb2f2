#include "oracle.h"

#include <algorithm>
#include <cstdlib>

#include "common.h"

namespace perfbench {

namespace {

bool ParseNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool CellsMatch(const std::string& a, const std::string& b) {
  double x = 0, y = 0;
  if (ParseNumber(a, &x) && ParseNumber(b, &y)) {
    return std::fabs(x - y) <= 1e-5 * std::max({1e-300, std::fabs(x), std::fabs(y)});
  }
  return a == b;
}

bool RowLess(const std::vector<std::string>& a,
             const std::vector<std::string>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    double x = 0, y = 0;
    if (ParseNumber(a[i], &x) && ParseNumber(b[i], &y)) {
      if (x != y) return x < y;
    } else if (a[i] != b[i]) {
      return a[i] < b[i];
    }
  }
  return a.size() < b.size();
}

}  // namespace

std::string CompareRows(Rows expected, Rows actual, bool ordered) {
  if (expected.size() != actual.size()) {
    return "row count " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.size());
  }
  if (!ordered) {
    std::sort(expected.begin(), expected.end(), RowLess);
    std::sort(actual.begin(), actual.end(), RowLess);
  }
  for (size_t r = 0; r < expected.size(); ++r) {
    if (expected[r].size() != actual[r].size()) return "column count differs";
    for (size_t c = 0; c < expected[r].size(); ++c) {
      if (!CellsMatch(expected[r][c], actual[r][c])) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + actual[r][c] + ", expected " + expected[r][c];
      }
    }
  }
  return "";
}

std::string SelfTestOracles() {
  std::string report;
  auto expect = [&report](bool rejected, bool should_reject,
                          const std::string& what) {
    if (rejected != should_reject) {
      report += what + (should_reject ? " was accepted; " : " was rejected; ");
    }
  };

  // Four tight clusters in 2-D and 3-D, far apart: at ε = 1 the clusters
  // are both the components and valid cliques.
  SeqRng rng(2009);
  std::vector<Pt<2>> p2;
  std::vector<Pt<3>> p3;
  Groups clusters(4);
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 6; ++i) {
      const double x = 10.0 * c + rng.Uniform(0, 0.3);
      const double y = rng.Uniform(0, 0.3);
      const double z = rng.Uniform(0, 0.3);
      clusters[c].push_back(static_cast<int64_t>(p2.size()));
      p2.push_back({x, y});
      p3.push_back({x, y, z});
    }
  }
  Groups merged = clusters;
  merged[0].insert(merged[0].end(), merged[1].begin(), merged[1].end());
  merged.erase(merged.begin() + 1);
  Groups dropped = clusters;
  dropped[2].pop_back();
  Groups moved = clusters;  // row 0 of cluster 0 moved into cluster 3
  moved[3].push_back(moved[0][0]);
  moved[0].erase(moved[0].begin());

  for (Dist dist : {Dist::kL2, Dist::kLInf}) {
    const std::string m = dist == Dist::kL2 ? " L2" : " LINF";
    expect(!CheckAny<2>(p2, clusters, dist, 1.0).empty(), false, "valid any 2d" + m);
    expect(!CheckAny<3>(p3, clusters, dist, 1.0).empty(), false, "valid any 3d" + m);
    expect(!CheckAll<2>(p2, clusters, dist, 1.0, false).empty(), false, "valid all 2d" + m);
    expect(!CheckAll<3>(p3, clusters, dist, 1.0, false).empty(), false, "valid all 3d" + m);
    for (const auto& [name, groups] :
         {std::pair<std::string, const Groups*>{"merged", &merged},
          {"dropped", &dropped},
          {"moved", &moved}}) {
      expect(!CheckAny<2>(p2, *groups, dist, 1.0).empty(), true, name + " any 2d" + m);
      expect(!CheckAny<3>(p3, *groups, dist, 1.0).empty(), true, name + " any 3d" + m);
      // ELIMINATE may drop rows, so a dropped row is fine there.
      const bool eliminate_ok = name == "dropped";
      expect(!CheckAll<2>(p2, *groups, dist, 1.0, false).empty(), true,
             name + " all 2d" + m);
      expect(!CheckAll<3>(p3, *groups, dist, 1.0, true).empty(), !eliminate_ok,
             name + " all-eliminate 3d" + m);
    }
  }
  if (CountPairs<2>(p2, Dist::kLInf, 1.0) != 4 * 15) report += "pair count wrong; ";

  // Hash-map aggregate and join results: a changed count and a dropped row.
  const Rows agg = {{"1", "10", "2.5"}, {"2", "7", "1.25"}, {"3", "1", "0.5"}};
  Rows agg_count = agg;
  agg_count[1][1] = "8";
  Rows agg_drop = agg;
  agg_drop.pop_back();
  expect(!CompareRows(agg, {agg[2], agg[0], agg[1]}, false).empty(), false,
         "reordered aggregate");
  expect(!CompareRows(agg, agg_count, false).empty(), true, "aggregate count");
  expect(!CompareRows(agg, agg_drop, false).empty(), true, "aggregate row drop");
  const Rows join = {{"118", "5.0731e+06"}};
  expect(!CompareRows(join, {{"117", "5.0731e+06"}}, true).empty(), true,
         "join count");
  expect(!CompareRows(join, {{"118", "5.0931e+06"}}, true).empty(), true,
         "join sum");
  return report;
}

}  // namespace perfbench
