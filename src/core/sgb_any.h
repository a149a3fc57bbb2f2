#ifndef SGB_CORE_SGB_ANY_H_
#define SGB_CORE_SGB_ANY_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/sgb_types.h"
#include "geom/point.h"

namespace sgb::core {

/// Execution counters for the SGB-Any benchmark harness.
struct SgbAnyStats {
  size_t distance_computations = 0;
  size_t union_operations = 0;
  size_t group_merges = 0;  ///< unions that actually merged two groups
  /// Parallel runs only: number of grid partitions and the per-worker-slot
  /// breakdown (aggregate counters above always include every worker).
  size_t parallel_partitions = 0;
  std::vector<SgbWorkerStats> workers;
};

/// The SGB-Any (distance-to-any) operator of Section 4.2.
///
/// Groups are the connected components of the graph whose edges connect
/// point pairs satisfying ξδ,ε. Unlike SGB-All, the result is
/// order-insensitive and no overlap arbitration is needed: a point touching
/// several groups merges them (Procedure 9, MergeGroupsInsert).
///
/// `kIndexed` follows Procedure 8 with an ε-grid as Points_IX: each point is
/// matched against the points of its own and the adjacent cells
/// (index::ParallelSimilarityUnion, at the options' dop), and a union-find
/// forest tracks existing, new, and merged groups. `kAllPairs` evaluates
/// all n-choose-2 similarity predicates. Both find the same ε-edges, so by
/// order independence they give the same groups; core::SgbAnyNd<D>
/// (core/sgb_nd.h) is this same implementation for D = 2, 3, 4.
///
/// Errors: InvalidArgument when ε is negative or not finite.
Result<Grouping> SgbAny(std::span<const geom::Point> points,
                        const SgbAnyOptions& options,
                        SgbAnyStats* stats = nullptr);

}  // namespace sgb::core

#endif  // SGB_CORE_SGB_ANY_H_
