#include "core/sgb_nd.h"

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace sgb::core {
namespace {

using geom::Metric;
using P2 = geom::PointN<2>;
using P3 = geom::PointN<3>;

std::vector<P3> RandomCloud3d(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<P3> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(P3{{rng.NextUniform(0, extent), rng.NextUniform(0, extent),
                      rng.NextUniform(0, extent)}});
  }
  return pts;
}

TEST(SgbNdTest, TwoDimensionalSpecializationMatchesCore) {
  // The strongest cross-check available: SgbAllNd<2> must agree
  // bit-for-bit with the dedicated 2-D implementation for every clause,
  // metric and tier.
  Rng rng(44);
  std::vector<geom::Point> pts2;
  std::vector<P2> ptsn;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.NextUniform(0, 8);
    const double y = rng.NextUniform(0, 8);
    pts2.push_back({x, y});
    ptsn.push_back(P2{{x, y}});
  }
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      for (const SgbAllAlgorithm algorithm :
           {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
            SgbAllAlgorithm::kIndexed}) {
        SgbAllOptions options;
        options.epsilon = 0.7;
        options.metric = metric;
        options.on_overlap = clause;
        options.algorithm = algorithm;
        auto core2d = SgbAll(pts2, options);
        auto nd = SgbAllNd<2>(ptsn, options);
        ASSERT_TRUE(core2d.ok());
        ASSERT_TRUE(nd.ok());
        ASSERT_EQ(core2d.value().group_of, nd.value().group_of)
            << ToString(clause) << "/" << ToString(algorithm);
      }
    }
  }

  SgbAnyOptions any;
  any.epsilon = 0.5;
  for (const SgbAnyAlgorithm algorithm :
       {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed}) {
    any.algorithm = algorithm;
    auto core2d = SgbAny(pts2, any);
    auto nd = SgbAnyNd<2>(ptsn, any);
    ASSERT_TRUE(core2d.ok());
    ASSERT_TRUE(nd.ok());
    EXPECT_EQ(core2d.value().group_of, nd.value().group_of);
  }
}

TEST(SgbNdTest, ThreeDimensionalTiersAgree) {
  const auto pts = RandomCloud3d(500, 6.0, 3);
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      SgbAllOptions options;
      options.epsilon = 0.9;
      options.metric = metric;
      options.on_overlap = clause;
      options.algorithm = SgbAllAlgorithm::kAllPairs;
      auto naive = SgbAllNd<3>(pts, options);
      options.algorithm = SgbAllAlgorithm::kIndexed;
      auto indexed = SgbAllNd<3>(pts, options);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(indexed.ok());
      ASSERT_EQ(naive.value().group_of, indexed.value().group_of);
    }
  }
}

TEST(SgbNdTest, ThreeDimensionalCliqueInvariant) {
  const auto pts = RandomCloud3d(400, 5.0, 9);
  SgbAllOptions options;
  options.epsilon = 1.1;
  options.metric = Metric::kL2;
  const auto result = SgbAllNd<3>(pts, options);
  ASSERT_TRUE(result.ok());
  for (const auto& group : result.value().GroupsAsLists()) {
    for (const size_t a : group) {
      for (const size_t b : group) {
        ASSERT_TRUE(
            geom::Similar(pts[a], pts[b], options.metric, options.epsilon));
      }
    }
  }
}

TEST(SgbNdTest, ThreeDimensionalAnyMatchesBfs) {
  const auto pts = RandomCloud3d(300, 6.0, 21);
  SgbAnyOptions options;
  options.epsilon = 0.8;
  options.metric = Metric::kL2;

  // BFS reference.
  constexpr size_t kUnset = static_cast<size_t>(-1);
  std::vector<size_t> label(pts.size(), kUnset);
  size_t next = 0;
  for (size_t s = 0; s < pts.size(); ++s) {
    if (label[s] != kUnset) continue;
    const size_t mine = next++;
    std::deque<size_t> frontier = {s};
    label[s] = mine;
    while (!frontier.empty()) {
      const size_t u = frontier.front();
      frontier.pop_front();
      for (size_t v = 0; v < pts.size(); ++v) {
        if (label[v] == kUnset &&
            geom::Similar(pts[u], pts[v], options.metric, options.epsilon)) {
          label[v] = mine;
          frontier.push_back(v);
        }
      }
    }
  }

  for (const SgbAnyAlgorithm algorithm :
       {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed}) {
    options.algorithm = algorithm;
    auto result = SgbAnyNd<3>(pts, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().group_of, label);
  }
}

TEST(SgbNdTest, CornerOfCubeExceedsL2Ball) {
  // 3-D analogue of Figure 7b: inside the L∞ box but outside the L2 ball.
  const std::vector<P3> pts = {P3{{0, 0, 0}}, P3{{0.7, 0.7, 0.7}}};
  SgbAllOptions options;
  options.epsilon = 1.0;
  options.metric = Metric::kL2;  // L2 distance = 1.21 > ε
  auto l2 = SgbAllNd<3>(pts, options);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.value().num_groups, 2u);

  options.metric = Metric::kLInf;  // L∞ distance = 0.7 <= ε
  auto linf = SgbAllNd<3>(pts, options);
  ASSERT_TRUE(linf.ok());
  EXPECT_EQ(linf.value().num_groups, 1u);
}

TEST(SgbNdTest, FourDimensionsGroupCorrectly) {
  std::vector<geom::PointN<4>> pts = {
      geom::PointN<4>{{0, 0, 0, 0}},
      geom::PointN<4>{{0.1, 0.1, 0.1, 0.1}},
      geom::PointN<4>{{5, 5, 5, 5}},
  };
  SgbAnyOptions options;
  options.epsilon = 1.0;
  const auto result = SgbAnyNd<4>(pts, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, 2u);
}

TEST(SgbNdTest, LInfPairAHairBeyondEpsilonStaysApart) {
  // 0.55 - 0.5 = 0.050000000000000044 > ε, yet 0.5 + ε rounds to 0.55: an
  // ε-rectangle or ε-window test alone would group the pair.
  const std::vector<geom::Point> pts = {{0.5, 0}, {0.55, 0}};
  const std::vector<P2> ptsn = {P2{{0.5, 0}}, P2{{0.55, 0}}};
  for (const int dop : {1, 4}) {
    SCOPED_TRACE(dop);
    for (const SgbAllAlgorithm algorithm :
         {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
          SgbAllAlgorithm::kIndexed}) {
      SgbAllOptions options;
      options.epsilon = 0.05;
      options.metric = Metric::kLInf;
      options.algorithm = algorithm;
      options.degree_of_parallelism = dop;
      EXPECT_EQ(SgbAll(pts, options).value().num_groups, 2u)
          << ToString(algorithm);
      EXPECT_EQ(SgbAllNd<2>(ptsn, options).value().num_groups, 2u)
          << ToString(algorithm);
    }
    for (const SgbAnyAlgorithm algorithm :
         {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed}) {
      SgbAnyOptions options;
      options.epsilon = 0.05;
      options.metric = Metric::kLInf;
      options.algorithm = algorithm;
      options.degree_of_parallelism = dop;
      EXPECT_EQ(SgbAny(pts, options).value().num_groups, 2u)
          << ToString(algorithm);
      EXPECT_EQ(SgbAnyNd<2>(ptsn, options).value().num_groups, 2u)
          << ToString(algorithm);
    }
  }
}

TEST(SgbNdTest, GovernanceReachesTheThreeDimensionalCores) {
  // The cores themselves honour cancel, deadline and budget (not only the
  // operator around them): every tier, at dop 1 and 4, returns the
  // governance Status and leaves no charge behind.
  const std::vector<P3> pts = RandomCloud3d(500, 5.0, 11);
  auto expect_abort = [&](QueryContext& ctx, Status::Code code) {
    for (const int dop : {1, 4}) {
      for (const SgbAllAlgorithm algorithm :
           {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
            SgbAllAlgorithm::kIndexed}) {
        SgbAllOptions options;
        options.epsilon = 0.5;
        options.algorithm = algorithm;
        options.degree_of_parallelism = dop;
        options.query_ctx = &ctx;
        EXPECT_EQ(SgbAllNd<3>(pts, options).status().code(), code)
            << ToString(algorithm) << " dop=" << dop;
      }
      for (const SgbAnyAlgorithm algorithm :
           {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed}) {
        SgbAnyOptions options;
        options.epsilon = 0.5;
        options.algorithm = algorithm;
        options.degree_of_parallelism = dop;
        options.query_ctx = &ctx;
        EXPECT_EQ(SgbAnyNd<3>(pts, options).status().code(), code)
            << ToString(algorithm) << " dop=" << dop;
      }
    }
    EXPECT_EQ(ctx.memory().usage_bytes(), 0u);
  };

  QueryContext cancelled;
  cancelled.Cancel();
  expect_abort(cancelled, Status::Code::kCancelled);

  QueryContext expired;
  expired.SetTimeout(-1);
  expect_abort(expired, Status::Code::kDeadlineExceeded);

  QueryContext tight(/*memory_budget_bytes=*/1024);
  expect_abort(tight, Status::Code::kResourceExhausted);
}

TEST(SgbNdTest, InvalidEpsilonRejected) {
  SgbAllOptions all;
  all.epsilon = -1;
  EXPECT_FALSE(SgbAllNd<3>(std::span<const P3>{}, all).ok());
  SgbAnyOptions any;
  any.epsilon = -1;
  EXPECT_FALSE(SgbAnyNd<3>(std::span<const P3>{}, any).ok());
}

}  // namespace
}  // namespace sgb::core
