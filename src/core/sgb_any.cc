#include "core/sgb_any.h"

#include <cmath>

#include "common/query_context.h"
#include "common/thread_pool.h"
#include "core/sgb_nd.h"
#include "geom/kernels.h"
#include "index/grid_partition.h"
#include "index/union_find.h"
#include "obs/metrics.h"

namespace sgb::core {

namespace {

Grouping LabelComponents(index::UnionFind& forest) {
  const size_t n = forest.size();
  Grouping result;
  result.group_of.assign(n, Grouping::kEliminated);
  std::vector<size_t> label_of_root(n, Grouping::kEliminated);
  for (size_t i = 0; i < n; ++i) {
    const size_t root = forest.Find(i);
    if (label_of_root[root] == Grouping::kEliminated) {
      label_of_root[root] = result.num_groups++;
    }
    result.group_of[i] = label_of_root[root];
  }
  return result;
}

/// The oracle: point i against the SoA prefix [0, i), matches unioned in
/// ascending j. Checks governance every kAbortCheckStride points (the grid
/// checks per cell instead).
template <size_t D, typename P>
void UnionAllPairs(std::span<const P> input, const SgbAnyOptions& options,
                   SgbAnyStats* stats, index::UnionFind& forest) {
  ScopedMemoryCharge columns_charge(options.query_ctx,
                                    input.size() * D * sizeof(double));
  geom::PointColumns<D> points;
  points.Assign(input);
  const geom::BlockSimilarity sim(options.metric, options.epsilon);
  std::vector<uint64_t> mask(geom::KernelMaskWords(points.size()));
  for (size_t i = 0; i < points.size(); ++i) {
    if (options.query_ctx != nullptr && i % kAbortCheckStride == 0) {
      ThrowIfAborted(options.query_ctx);
    }
    stats->distance_computations += i;
    sim.Match(points[i], points, 0, i, mask.data());
    geom::ForEachSetBit(mask.data(), i, [&](size_t j) {
      ++stats->union_operations;
      if (!forest.Connected(i, j)) ++stats->group_merges;
      forest.Union(i, j);
    });
  }
}

/// Procedure 8 (FindCandidateGroups) + Procedure 9 (ProcessGroupingANY) on
/// the ε-grid: every ε-neighbour pair is found once in a cell or between
/// adjacent cells and unioned, which realizes new-group creation,
/// single-group join, and multi-group merge uniformly. SGB-Any is exactly
/// "connected components of the ε-neighbour graph" — an order-insensitive
/// result — so the grid reproduces the all-pairs grouping bit-for-bit at
/// every degree of parallelism (docs/PARALLELISM.md).
template <typename P>
void UnionOnGrid(std::span<const P> input, const SgbAnyOptions& options,
                 SgbAnyStats* stats, size_t dop, index::UnionFind& forest) {
  std::vector<index::GridPartitionStats> grid_stats;
  index::ParallelSimilarityUnion(input, options.metric, options.epsilon, dop,
                                 ThreadPool::Default(), &forest, &grid_stats,
                                 options.query_ctx);
  for (const index::GridPartitionStats& w : grid_stats) {
    stats->distance_computations += w.distance_computations;
    stats->union_operations += w.union_operations + w.boundary_edges;
    if (dop == 1) continue;
    if (w.cells > 0) ++stats->parallel_partitions;
    SgbWorkerStats worker;
    worker.points = w.points;
    worker.distance_computations = w.distance_computations;
    stats->workers.push_back(worker);
  }
  // group_merges is the number of unions that reduced the component count.
  stats->group_merges += input.size() - forest.NumSets();
}

/// The one SGB-Any implementation behind SgbAny (2-D Point input) and
/// SgbAnyNd<D>.
template <size_t D, typename P>
Result<Grouping> RunSgbAny(std::span<const P> input,
                           const SgbAnyOptions& options, SgbAnyStats* stats) {
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SGB-Any: similarity threshold epsilon must be finite and >= 0");
  }
  if (options.degree_of_parallelism < 0) {
    return Status::InvalidArgument(
        "SGB-Any: degree_of_parallelism must be >= 0 (0 = auto)");
  }
  // As in SgbAll: counters always reach the global registry, with the
  // caller's struct as the optional per-invocation view.
  SgbAnyStats local;
  if (stats == nullptr) stats = &local;
  const bool indexed = options.algorithm == SgbAnyAlgorithm::kIndexed;
  const size_t dop =
      indexed ? ThreadPool::ResolveDop(options.degree_of_parallelism) : 1;
  const size_t n = input.size();
  Result<Grouping> result = [&]() -> Result<Grouping> {
    try {
      // Bookkeeping charge: union-find forest + labeling, O(n) words.
      ScopedMemoryCharge bookkeeping(options.query_ctx,
                                     n * sizeof(size_t) * 2);
      index::UnionFind forest(n);
      if (indexed) {
        UnionOnGrid(input, options, stats, dop, forest);
      } else {
        UnionAllPairs<D>(input, options, stats, forest);
      }
      return LabelComponents(forest);
    } catch (const QueryAbort& abort) {
      // Governance aborts from the loops or (rethrown) ParallelFor workers
      // surface as the core's Status.
      return abort.status();
    }
  }();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("sgb.any.invocations").Add(1);
  registry.GetCounter("sgb.any.points").Add(n);
  registry.GetCounter("sgb.any.distance_computations")
      .Add(stats->distance_computations);
  registry.GetCounter("sgb.any.union_operations")
      .Add(stats->union_operations);
  registry.GetCounter("sgb.any.group_merges").Add(stats->group_merges);
  if (dop > 1) {
    registry.GetCounter("sgb.any.parallel_runs").Add(1);
    registry.GetCounter("sgb.any.parallel_partitions")
        .Add(stats->parallel_partitions);
  }
  return result;
}

}  // namespace

Result<Grouping> SgbAny(std::span<const geom::Point> points,
                        const SgbAnyOptions& options, SgbAnyStats* stats) {
  return RunSgbAny<2>(points, options, stats);
}

template <size_t D>
Result<Grouping> SgbAnyNd(std::span<const geom::PointN<D>> points,
                          const SgbAnyOptions& options, SgbAnyStats* stats) {
  return RunSgbAny<D>(points, options, stats);
}

template Result<Grouping> SgbAnyNd<2>(std::span<const geom::PointN<2>>,
                                      const SgbAnyOptions&, SgbAnyStats*);
template Result<Grouping> SgbAnyNd<3>(std::span<const geom::PointN<3>>,
                                      const SgbAnyOptions&, SgbAnyStats*);
template Result<Grouping> SgbAnyNd<4>(std::span<const geom::PointN<4>>,
                                      const SgbAnyOptions&, SgbAnyStats*);

}  // namespace sgb::core
