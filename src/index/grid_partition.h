#ifndef SGB_INDEX_GRID_PARTITION_H_
#define SGB_INDEX_GRID_PARTITION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/nd.h"
#include "geom/point.h"
#include "index/union_find.h"

namespace sgb {
class ThreadPool;
class QueryContext;
}

namespace sgb::index {

/// Per-worker-slot counters from one ParallelSimilarityUnion run.
struct GridPartitionStats {
  size_t points = 0;                 ///< points scanned by this slot
  size_t cells = 0;                  ///< grid cells owned by this slot
  size_t distance_computations = 0;  ///< similarity predicate evaluations
  size_t union_operations = 0;       ///< similar pairs unioned in-partition
  size_t boundary_edges = 0;         ///< similar pairs deferred to the merge
};

/// Partition-parallel ε-neighbour union — the point index of SGB-Any (at
/// every dop, in every dimension) and of SGB-All's independent-component
/// decomposition.
///
/// The points are hashed into a uniform D-dimensional grid whose cell side
/// is at least `radius`, so every pair within `radius` lies in the same or
/// in adjacent cells. The occupied cells (sorted by cell coordinate) are
/// split into `dop` contiguous ranges balanced by point count; each worker
/// enumerates the candidate pairs of its own cells (same-cell pairs plus
/// the (3^D - 1) / 2 lexicographically-forward neighbour cells, so every
/// pair is generated exactly once) and unions the pairs that satisfy the
/// similarity predicate ξδ,ε directly into `forest` — race-free because
/// each partition touches a disjoint set of element indices. Pairs that
/// span two partitions are collected as boundary edges and unioned in a
/// single sequential merge pass at the end. At dop 1 the one partition is
/// scanned on the calling thread.
///
/// On return, `forest` (which must have size >= points.size()) holds the
/// connected components of the `radius`-neighbour graph under `metric` —
/// exactly the components a sequential pairwise scan would produce, for
/// finite coordinates. Any finite radius >= 0 works: the cell side is also
/// kept above zero and wide enough that no finite coordinate reaches the
/// cell-index clamp, so radius 0 groups exactly the coincident points.
///
/// `worker_stats`, when non-null, is resized to `dop` and filled with the
/// per-slot breakdown (the EXPLAIN ANALYZE per-partition counters).
///
/// `ctx`, when non-null, is the governing query: the grid build charges its
/// cell structures against the context's memory budget, workers check for
/// cancellation/deadline per cell, and a governance failure propagates as a
/// QueryAbort exception out of this call (rethrown from workers by
/// ParallelFor). The "index.grid.build" fault site fires here too.
///
/// Instantiated for D = 2, 3 and 4; the Point overload is the 2-D form.
template <size_t D>
void ParallelSimilarityUnion(std::span<const geom::PointN<D>> points,
                             geom::Metric metric, double radius, size_t dop,
                             ThreadPool& pool, UnionFind* forest,
                             std::vector<GridPartitionStats>* worker_stats,
                             QueryContext* ctx = nullptr);
void ParallelSimilarityUnion(std::span<const geom::Point> points,
                             geom::Metric metric, double radius, size_t dop,
                             ThreadPool& pool, UnionFind* forest,
                             std::vector<GridPartitionStats>* worker_stats,
                             QueryContext* ctx = nullptr);

}  // namespace sgb::index

#endif  // SGB_INDEX_GRID_PARTITION_H_
