// Shared input generators for the differential fuzz harness: the gtest
// sweep (sgb_fuzz_test.cc) and the libFuzzer entry (sgb_fuzzer_main.cc)
// draw their point sets and configurations from the same code so a corpus
// finding reproduces under either driver.

#ifndef SGB_TESTS_FUZZ_FUZZ_GENERATORS_H_
#define SGB_TESTS_FUZZ_FUZZ_GENERATORS_H_

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_types.h"
#include "geom/nd.h"
#include "geom/point.h"

namespace sgb::core {

enum class PointKind {
  kUniform,
  kClustered,
  kDuplicates,
  kNonFinite,
  kLInfLattice,
};

inline const char* KindName(PointKind kind) {
  switch (kind) {
    case PointKind::kUniform: return "uniform";
    case PointKind::kClustered: return "clustered";
    case PointKind::kDuplicates: return "duplicates";
    case PointKind::kNonFinite: return "non-finite";
    case PointKind::kLInfLattice: return "linf-lattice";
  }
  return "?";
}

inline std::vector<geom::Point> GeneratePoints(Rng& rng, PointKind kind,
                                               size_t n) {
  using geom::Point;
  std::vector<Point> pts;
  pts.reserve(n);
  switch (kind) {
    case PointKind::kUniform:
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({rng.NextUniform(0, 8), rng.NextUniform(0, 8)});
      }
      break;
    case PointKind::kClustered: {
      const size_t hotspots = 1 + rng.NextBounded(5);
      std::vector<Point> centers;
      for (size_t i = 0; i < hotspots; ++i) {
        centers.push_back({rng.NextUniform(0, 8), rng.NextUniform(0, 8)});
      }
      for (size_t i = 0; i < n; ++i) {
        const Point& c = centers[rng.NextBounded(hotspots)];
        pts.push_back({rng.NextGaussian(c.x, 0.3), rng.NextGaussian(c.y, 0.3)});
      }
      break;
    }
    case PointKind::kDuplicates:
      // Snap to a coarse lattice: many exact duplicates, collinear runs,
      // and distances that land exactly on epsilon multiples — the
      // adversarial regime for tie-breaking and boundary predicates.
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({0.5 * static_cast<double>(rng.NextBounded(9)),
                       0.5 * static_cast<double>(rng.NextBounded(9))});
      }
      break;
    case PointKind::kNonFinite: {
      constexpr double kSpecials[] = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
      };
      for (size_t i = 0; i < n; ++i) {
        Point p{rng.NextUniform(0, 8), rng.NextUniform(0, 8)};
        if (rng.NextBounded(4) == 0) p.x = kSpecials[rng.NextBounded(3)];
        if (rng.NextBounded(4) == 0) p.y = kSpecials[rng.NextBounded(3)];
        pts.push_back(p);
      }
      break;
    }
    case PointKind::kLInfLattice:
      // Multiples of 0.001 drawn under L∞ with ε = 0.05 (DrawConfig): many
      // pairs sit 50 lattice steps apart on an axis, and the rounded
      // difference of such a pair lands a hair above or below ε — the
      // regime where a window or rectangle test, whose bounds p ± ε round
      // on their own, disagrees with the pairwise predicate.
      for (size_t i = 0; i < n; ++i) {
        pts.push_back({0.001 * static_cast<double>(rng.NextBounded(300)),
                       0.001 * static_cast<double>(rng.NextBounded(300))});
      }
      break;
  }
  return pts;
}

/// A third coordinate per point, drawn from the same generator, so the 3-D
/// cores see the kind's regime on every axis.
inline std::vector<geom::PointN<3>> Lift3d(Rng& rng, PointKind kind,
                                           const std::vector<geom::Point>& pts) {
  const std::vector<geom::Point> extra = GeneratePoints(rng, kind, pts.size());
  std::vector<geom::PointN<3>> out;
  out.reserve(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    out.push_back(geom::PointN<3>{{pts[i].x, pts[i].y, extra[i].x}});
  }
  return out;
}

struct CaseConfig {
  PointKind kind = PointKind::kUniform;
  geom::Metric metric = geom::Metric::kL2;
  double epsilon = 0.5;
  OverlapClause clause = OverlapClause::kJoinAny;
  uint64_t join_seed = 0;

  std::string ToText() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "kind=%s metric=%s epsilon=%.17g clause=%s join_seed=%llu",
                  KindName(kind),
                  metric == geom::Metric::kL2 ? "L2" : "LInf", epsilon,
                  ToString(clause),
                  static_cast<unsigned long long>(join_seed));
    return buf;
  }
};

inline SgbAllOptions AllOptions(const CaseConfig& config,
                                SgbAllAlgorithm algorithm, int dop) {
  SgbAllOptions options;
  options.epsilon = config.epsilon;
  options.metric = config.metric;
  options.on_overlap = config.clause;
  options.seed = config.join_seed;
  options.algorithm = algorithm;
  options.degree_of_parallelism = dop;
  return options;
}

inline SgbAnyOptions AnyOptions(const CaseConfig& config,
                                SgbAnyAlgorithm algorithm, int dop) {
  SgbAnyOptions options;
  options.epsilon = config.epsilon;
  options.metric = config.metric;
  options.algorithm = algorithm;
  options.degree_of_parallelism = dop;
  return options;
}

inline CaseConfig DrawConfig(Rng& rng) {
  CaseConfig config;
  config.kind = static_cast<PointKind>(rng.NextBounded(5));
  config.metric = rng.NextBounded(2) == 0 ? geom::Metric::kL2
                                          : geom::Metric::kLInf;
  config.epsilon = rng.NextUniform(0.05, 2.0);
  if (config.kind == PointKind::kLInfLattice) {
    config.metric = geom::Metric::kLInf;
    config.epsilon = 0.05;
  }
  constexpr OverlapClause kClauses[] = {OverlapClause::kJoinAny,
                                        OverlapClause::kEliminate,
                                        OverlapClause::kFormNewGroup};
  config.clause = kClauses[rng.NextBounded(3)];
  config.join_seed = rng.NextU64();
  return config;
}

/// Paste-able repro: the config plus every point at full precision.
template <typename Pt>
std::string Repro(const CaseConfig& config, const std::vector<Pt>& pts) {
  std::string out = "repro: " + config.ToText() + "\npoints = {\n";
  char buf[32];
  for (const Pt& point : pts) {
    const auto& p = geom::ToPointN(point);
    out += "  {";
    for (size_t a = 0; a < p.c.size(); ++a) {
      std::snprintf(buf, sizeof(buf), a == 0 ? "%.17g" : ", %.17g", p[a]);
      out += buf;
    }
    out += "},\n";
  }
  out += "};";
  return out;
}

}  // namespace sgb::core

#endif  // SGB_TESTS_FUZZ_FUZZ_GENERATORS_H_
