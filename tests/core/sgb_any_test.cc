#include "core/sgb_any.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

TEST(SgbAnyTest, EmptyAndSingle) {
  const auto empty = SgbAny({}, SgbAnyOptions{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().num_groups, 0u);

  const std::vector<Point> one = {{5, 5}};
  const auto single = SgbAny(one, SgbAnyOptions{});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().num_groups, 1u);
}

TEST(SgbAnyTest, RejectsInvalidEpsilon) {
  SgbAnyOptions options;
  options.epsilon = -0.5;
  EXPECT_FALSE(SgbAny({}, options).ok());
  options.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SgbAny({}, options).ok());
}

TEST(SgbAnyTest, OrderInsensitiveGroupSizes) {
  // SGB-Any is connectivity-based, so permuting the input must not change
  // the partition (unlike SGB-All).
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.NextUniform(0, 20), rng.NextUniform(0, 20)});
  }
  SgbAnyOptions options;
  options.epsilon = 1.2;
  const auto forward = SgbAny(pts, options);
  std::vector<Point> reversed(pts.rbegin(), pts.rend());
  const auto backward = SgbAny(reversed, options);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  auto sizes_fwd = forward.value().GroupSizes();
  auto sizes_bwd = backward.value().GroupSizes();
  std::sort(sizes_fwd.begin(), sizes_fwd.end());
  std::sort(sizes_bwd.begin(), sizes_bwd.end());
  EXPECT_EQ(sizes_fwd, sizes_bwd);
}

TEST(SgbAnyTest, L2WindowCornersAreVerified) {
  // Two points in the L∞ window corner but beyond the L2 radius must stay
  // separate under L2 and merge under L∞ (VerifyPoints in Procedure 8).
  const std::vector<Point> pts = {{0, 0}, {0.9, 0.9}};
  SgbAnyOptions options;
  options.epsilon = 1.0;
  options.metric = Metric::kL2;
  const auto l2 = SgbAny(pts, options);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.value().num_groups, 2u);

  options.metric = Metric::kLInf;
  const auto linf = SgbAny(pts, options);
  ASSERT_TRUE(linf.ok());
  EXPECT_EQ(linf.value().num_groups, 1u);
}

TEST(SgbAnyTest, StatsCountMergesAndQueries) {
  const std::vector<Point> pts = {{0, 0}, {10, 10}, {5, 5}, {2.5, 2.5},
                                  {7.5, 7.5}};
  SgbAnyOptions options;
  options.epsilon = 3.6;  // L2: adjacent diagonal points are ~3.54 apart
  options.algorithm = SgbAnyAlgorithm::kIndexed;
  SgbAnyStats stats;
  const auto result = SgbAny(pts, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, 1u);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GE(stats.union_operations, 4u);
  EXPECT_GE(stats.group_merges, 4u);  // n-1 merges to connect 5 points
}

TEST(SgbAnyTest, ZeroAndTinyEpsilonGroupOnlyCoincidentPoints) {
  // 20000 distinct points over [0, 100]^2 plus 500 exact copies of some of
  // them: at ε = 0 and at ε = 1e-13 (below the smallest cell side the grid
  // allows for these coordinates) only the copies group.
  Rng rng(17);
  std::vector<Point> pts;
  for (size_t i = 0; i < 20000; ++i) {
    pts.push_back({rng.NextUniform(0, 100), rng.NextUniform(0, 100)});
  }
  for (size_t i = 0; i < 500; ++i) pts.push_back(pts[i * 7]);
  for (const double epsilon : {0.0, 1e-13}) {
    for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
      for (const int dop : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "eps=" << epsilon << " metric="
                                          << static_cast<int>(metric)
                                          << " dop=" << dop);
        SgbAnyOptions options;
        options.epsilon = epsilon;
        options.metric = metric;
        options.degree_of_parallelism = dop;
        SgbAnyStats stats;
        const auto result = SgbAny(pts, options, &stats);
        ASSERT_TRUE(result.ok());
        EXPECT_EQ(result.value().num_groups, 20000u);
        for (size_t i = 0; i < 500; ++i) {
          EXPECT_EQ(result.value().group_of[20000 + i],
                    result.value().group_of[i * 7]);
        }
        // Bounded work: the grid's cells stay small enough that only
        // near-coincident points are compared, rather than every point
        // collapsing into one cell.
        EXPECT_LT(stats.distance_computations, 4 * pts.size());
      }
    }
  }

  // A pair 5e-14 apart groups at ε = 1e-13 but not at ε = 0, as all-pairs
  // says.
  const std::vector<Point> close = {{1, 1}, {1 + 5e-14, 1}, {1 + 5e-13, 1}};
  for (const double epsilon : {0.0, 1e-13}) {
    for (const SgbAnyAlgorithm algorithm :
         {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed}) {
      SgbAnyOptions options;
      options.epsilon = epsilon;
      options.algorithm = algorithm;
      const auto result = SgbAny(close, options);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().num_groups, epsilon == 0.0 ? 3u : 2u)
          << "eps=" << epsilon << " " << ToString(algorithm);
    }
  }
}

TEST(SgbAnyTest, GroupIdsAreDenseAndInputOrdered) {
  const std::vector<Point> pts = {{0, 0}, {50, 50}, {0.5, 0}, {50.5, 50}};
  SgbAnyOptions options;
  options.epsilon = 1.0;
  const auto result = SgbAny(pts, options);
  ASSERT_TRUE(result.ok());
  // First appearance order: point 0 -> group 0, point 1 -> group 1.
  EXPECT_EQ(result.value().group_of,
            (std::vector<size_t>{0, 1, 0, 1}));
}

}  // namespace
}  // namespace sgb::core
