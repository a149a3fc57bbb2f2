#include "index/grid_partition.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "geom/kernels.h"
#include "obs/trace.h"

namespace sgb::index {

// Fires at grid-build entry, before any cell structures are allocated.
static FaultSite g_grid_build_fault("index.grid.build",
                                    Status::Code::kInternal);

// Fires when hashing a point allocates a new cell — the growth path whose
// interruption must not leave the cell arrays out of step with the index.
static FaultSite g_grid_rehash_fault("index.grid.rehash",
                                     Status::Code::kInternal);

namespace {

using geom::Metric;
using geom::Point;

/// Clamp bound for cell coordinates, small enough that +-1 neighbour
/// arithmetic cannot overflow. CellSide keeps every finite coordinate's
/// cell below 2^38 in magnitude, so only non-finite coordinates land here.
/// Under L2 their distance to anything is never <= radius; under L∞ fmax
/// ignores a NaN axis, so such pairs can be missed — non-finite inputs only
/// get the weaker well-formed-grouping contract (docs/ROBUSTNESS.md).
constexpr int64_t kMaxCell = int64_t{1} << 40;

int64_t CellCoord(double v, double side) {
  const double c = std::floor(v / side);
  if (std::isnan(c)) return kMaxCell;
  if (c >= static_cast<double>(kMaxCell)) return kMaxCell;
  if (c <= static_cast<double>(-kMaxCell)) return -kMaxCell;
  return static_cast<int64_t>(c);
}

/// The grid's cell side, the largest of three lower bounds, widened by
/// 2^-10:
///  * radius: with the widening, two coordinates within radius differ by
///    less than one cell even after v / side rounds (its error stays below
///    2^-15 cells, see the next bound), so they land in the same or in
///    adjacent cells;
///  * 2^-38 times the largest finite |coordinate|: every finite cell index
///    stays below 2^38 in magnitude, far from the clamp;
///  * the smallest normal double: the side is never 0, so radius 0 (or a
///    radius far below the coordinates' spacing) needs no special case.
template <size_t D, typename P>
double CellSide(std::span<const P> points, double radius) {
  double max_abs = 0.0;
  for (const P& point : points) {
    const geom::PointN<D>& p = geom::ToPointN(point);
    for (size_t a = 0; a < D; ++a) {
      if (std::isfinite(p[a])) max_abs = std::max(max_abs, std::fabs(p[a]));
    }
  }
  return std::max({radius, max_abs * 0x1p-38,
                   std::numeric_limits<double>::min()}) *
         (1.0 + 0x1p-10);
}

template <size_t D>
using CellKey = std::array<int64_t, D>;

template <size_t D>
struct CellKeyHash {
  size_t operator()(const CellKey<D>& k) const {
    uint64_t h = 0;
    for (const int64_t c : k) {
      h = (h ^ static_cast<uint64_t>(c)) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
    return static_cast<size_t>(h);
  }
};

/// The (3^D - 1) / 2 offsets in {-1, 0, 1}^D whose first nonzero component
/// is +1, in lexicographic order. Together with the cell itself they reach
/// every adjacent cell pair exactly once.
template <size_t D>
std::vector<CellKey<D>> ForwardOffsets() {
  size_t total = 1;
  for (size_t a = 0; a < D; ++a) total *= 3;
  std::vector<CellKey<D>> out;
  for (size_t code = 0; code < total; ++code) {
    CellKey<D> o;
    size_t rest = code;
    for (size_t a = D; a-- > 0;) {
      o[a] = static_cast<int64_t>(rest % 3) - 1;
      rest /= 3;
    }
    const auto first = std::find_if(o.begin(), o.end(),
                                    [](int64_t v) { return v != 0; });
    if (first != o.end() && *first == 1) out.push_back(o);
  }
  return out;
}

struct Edge {
  size_t a;
  size_t b;
};

/// The body of both ParallelSimilarityUnion forms; P is Point (D = 2) or
/// PointN<D>.
template <size_t D, typename P>
void GridUnion(std::span<const P> points, Metric metric, double radius,
               size_t dop, ThreadPool& pool, UnionFind* forest,
               std::vector<GridPartitionStats>* worker_stats,
               QueryContext* ctx) {
  dop = std::max<size_t>(dop, 1);
  if (worker_stats != nullptr) {
    worker_stats->assign(dop, GridPartitionStats{});
  }
  const size_t n = points.size();
  if (n == 0) return;

  {
    Status fault = g_grid_build_fault.Check();
    if (!fault.ok()) throw QueryAbort(std::move(fault));
  }
  // The grid below holds per point its cell id, its member slot and its
  // coordinates, plus at most one cell key; charge that up front so a
  // budgeted query fails before the build, not mid-way through it.
  ScopedMemoryCharge grid_charge(
      ctx, n * (sizeof(CellKey<D>) + 2 * sizeof(size_t) + D * sizeof(double)));

  // ---- Build: hash every point into its grid cell, then lay the cells
  // out contiguously (a stable counting sort): cell c's members are
  // ids[cell_begin[c], cell_begin[c + 1]) in input order, and soa holds
  // their coordinates in the same order, so the scan matches cell against
  // cell with the block kernels.
  const double side = CellSide<D>(points, radius);
  std::unordered_map<CellKey<D>, size_t, CellKeyHash<D>> cell_index;
  cell_index.reserve(n);
  std::vector<CellKey<D>> cell_keys;
  std::vector<size_t> cell_of(n);
  std::vector<size_t> cell_begin;  // member counts, then offsets
  for (size_t i = 0; i < n; ++i) {
    const geom::PointN<D>& p = geom::ToPointN(points[i]);
    CellKey<D> key;
    for (size_t a = 0; a < D; ++a) key[a] = CellCoord(p[a], side);
    auto [it, inserted] = cell_index.try_emplace(key, cell_keys.size());
    if (inserted) {
      Status fault = g_grid_rehash_fault.Check();
      if (!fault.ok()) {
        cell_index.erase(it);  // Keep the index and arrays in step.
        throw QueryAbort(std::move(fault));
      }
      cell_keys.push_back(key);
      cell_begin.push_back(0);
    }
    cell_of[i] = it->second;
    ++cell_begin[it->second];
  }
  const size_t num_cells = cell_keys.size();
  // Counts become end offsets; filling each cell back to front then leaves
  // its begin offset behind.
  for (size_t c = 1; c < num_cells; ++c) cell_begin[c] += cell_begin[c - 1];
  std::vector<size_t> ids(n);
  for (size_t i = n; i-- > 0;) ids[--cell_begin[cell_of[i]]] = i;
  cell_begin.push_back(n);
  geom::PointColumns<D> soa;
  soa.Reserve(n);
  for (const size_t i : ids) soa.PushBack(geom::ToPointN(points[i]));

  // ---- Partition: contiguous cell ranges balanced by point count. -----
  std::vector<size_t> order(num_cells);
  for (size_t c = 0; c < num_cells; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cell_keys[a] < cell_keys[b];
  });

  const size_t num_parts = std::min(dop, num_cells);
  std::vector<uint32_t> part_of_cell(num_cells, 0);
  std::vector<std::pair<size_t, size_t>> part_range(num_parts);
  {
    size_t pos = 0;
    size_t assigned_points = 0;
    for (size_t p = 0; p < num_parts; ++p) {
      const size_t begin = pos;
      const size_t target = (n * (p + 1) + num_parts - 1) / num_parts;
      // Every part takes at least one cell; the last part takes the rest.
      do {
        assigned_points += cell_begin[order[pos] + 1] - cell_begin[order[pos]];
        part_of_cell[order[pos]] = static_cast<uint32_t>(p);
        ++pos;
      } while (pos < num_cells && (p + 1 == num_parts ||
                                   (assigned_points < target &&
                                    num_cells - pos > num_parts - p - 1)));
      part_range[p] = {begin, pos};
    }
  }

  // ---- Scan: each worker enumerates its partition's candidate pairs. --
  // Same-cell pairs plus the lexicographically-forward neighbour cells
  // generate every within-radius pair exactly once. Unions stay inside the
  // partition's index region; cross-partition pairs become boundary edges.
  const std::vector<CellKey<D>> offsets = ForwardOffsets<D>();
  std::vector<GridPartitionStats> slot_stats(dop);
  std::vector<std::vector<Edge>> slot_edges(dop);
  const geom::BlockSimilarity sim(metric, radius);
  // Worker spans parent to whatever span is open on the calling thread
  // (the explicit-parent form: worker threads have no stack to inherit).
  obs::QueryTrace* trace = ctx != nullptr ? ctx->trace() : nullptr;
  const uint64_t parent_span =
      trace != nullptr ? trace->CurrentSpanId() : 0;
  auto scan = [&](size_t slot, size_t part_begin, size_t part_end) {
    obs::ScopedSpan worker_span(trace, "sgb.worker", parent_span);
    worker_span.AddAttribute("partitions",
                             static_cast<double>(part_end - part_begin));
    GridPartitionStats& stats = slot_stats[slot];
    std::vector<Edge>& edges = slot_edges[slot];
    std::vector<uint64_t> mask;  // worker-local kernel scratch
    for (size_t p = part_begin; p < part_end; ++p) {
      const auto [first, last] = part_range[p];
      for (size_t k = first; k < last; ++k) {
        ThrowIfAborted(ctx);  // per-cell; ParallelFor rethrows on caller
        const size_t ci = order[k];
        const CellKey<D>& key = cell_keys[ci];
        const size_t begin = cell_begin[ci];
        const size_t size = cell_begin[ci + 1] - begin;
        ++stats.cells;
        stats.points += size;
        mask.resize(geom::KernelMaskWords(size));
        for (size_t a = 0; a < size; ++a) {
          // Member a against the cell prefix [0, a); ForEachSetBit yields
          // ascending b.
          stats.distance_computations += a;
          sim.Match(soa[begin + a], soa, begin, a, mask.data());
          geom::ForEachSetBit(mask.data(), a, [&](size_t b) {
            ++stats.union_operations;
            forest->Union(ids[begin + a], ids[begin + b]);
          });
        }
        for (const CellKey<D>& offset : offsets) {
          CellKey<D> nk;
          for (size_t a = 0; a < D; ++a) nk[a] = key[a] + offset[a];
          const auto it = cell_index.find(nk);
          if (it == cell_index.end()) continue;
          const size_t nc = it->second;
          const bool same_part =
              part_of_cell[nc] == static_cast<uint32_t>(p);
          const size_t nbegin = cell_begin[nc];
          const size_t nsize = cell_begin[nc + 1] - nbegin;
          mask.resize(geom::KernelMaskWords(nsize));
          for (size_t a = 0; a < size; ++a) {
            const size_t i = ids[begin + a];
            stats.distance_computations += nsize;
            sim.Match(soa[begin + a], soa, nbegin, nsize, mask.data());
            geom::ForEachSetBit(mask.data(), nsize, [&](size_t b) {
              const size_t j = ids[nbegin + b];
              if (same_part) {
                ++stats.union_operations;
                forest->Union(i, j);
              } else {
                ++stats.boundary_edges;
                edges.push_back(Edge{i, j});
              }
            });
          }
        }
      }
    }
  };
  if (num_parts == 1) {
    scan(0, 0, 1);
  } else {
    pool.ParallelFor(num_parts, dop, scan, /*grain=*/1);
  }

  // ---- Merge: sequential pass over the partition-seam edges. ----------
  for (const std::vector<Edge>& edges : slot_edges) {
    for (const Edge& e : edges) forest->Union(e.a, e.b);
  }
  if (worker_stats != nullptr) *worker_stats = std::move(slot_stats);
}

}  // namespace

template <size_t D>
void ParallelSimilarityUnion(std::span<const geom::PointN<D>> points,
                             Metric metric, double radius, size_t dop,
                             ThreadPool& pool, UnionFind* forest,
                             std::vector<GridPartitionStats>* worker_stats,
                             QueryContext* ctx) {
  GridUnion<D>(points, metric, radius, dop, pool, forest, worker_stats, ctx);
}

#define SGB_INSTANTIATE_GRID_UNION(D)                                \
  template void ParallelSimilarityUnion<D>(                          \
      std::span<const geom::PointN<D>>, Metric, double, size_t,      \
      ThreadPool&, UnionFind*, std::vector<GridPartitionStats>*,     \
      QueryContext*);
SGB_INSTANTIATE_GRID_UNION(2)
SGB_INSTANTIATE_GRID_UNION(3)
SGB_INSTANTIATE_GRID_UNION(4)
#undef SGB_INSTANTIATE_GRID_UNION

void ParallelSimilarityUnion(std::span<const Point> points, Metric metric,
                             double radius, size_t dop, ThreadPool& pool,
                             UnionFind* forest,
                             std::vector<GridPartitionStats>* worker_stats,
                             QueryContext* ctx) {
  GridUnion<2>(points, metric, radius, dop, pool, forest, worker_stats, ctx);
}

}  // namespace sgb::index
