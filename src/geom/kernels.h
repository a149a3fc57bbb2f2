#ifndef SGB_GEOM_KERNELS_H_
#define SGB_GEOM_KERNELS_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/nd.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace sgb::geom {

/// Vectorized ε-predicate kernels over SoA point blocks.
///
/// The paper's cost model is dominated by ξδ,ε evaluations (Definitions
/// 1–2); this layer batches them: instead of calling geom::Similar once per
/// pair through pointer-chasing AoS loops, callers lay candidate points out
/// as separate x[]/y[] columns and evaluate one query point against a whole
/// block per call, receiving a selection bitmask. Three implementations
/// exist per kernel:
///
///  * Scalar   — the per-element reference loop, bit-identical to the
///               historical geom::Similar call sites; kept for differential
///               testing and as the remainder loop of the other variants.
///  * Portable — branchless unrolled loops that auto-vectorize under -O2.
///  * AVX2     — explicit intrinsics, compiled only under -DSGB_ENABLE_AVX2
///               and selected at runtime iff the CPU supports AVX2.
///
/// Exactness contract (docs/VECTORIZATION.md): every variant evaluates
/// EXACTLY the comparisons of the scalar predicate — `dx²+dy² <= ε²` under
/// L2 and `max(|dx|,|dy|) <= ε` under L∞ (fmax NaN semantics included) —
/// with no FMA contraction and no reassociation, so the selection masks,
/// and therefore the groupings built from them, are bit-identical across
/// variants.

/// Number of points per fixed-capacity block in the batch pipeline. 256
/// doubles per column = two 4KB columns per block: fits L1 alongside the
/// query state.
inline constexpr size_t kPointBlockCapacity = 256;

/// Mask words needed for an n-point block (one bit per point).
constexpr size_t KernelMaskWords(size_t n) { return (n + 63) / 64; }

/// Fixed-capacity SoA point block: the unit of the engine's batch-at-a-time
/// point extraction.
struct PointBlock {
  alignas(32) double x[kPointBlockCapacity];
  alignas(32) double y[kPointBlockCapacity];
  size_t size = 0;

  bool Full() const { return size == kPointBlockCapacity; }
  void Clear() { size = 0; }
  void PushBack(const Point& p) {
    x[size] = p.x;
    y[size] = p.y;
    ++size;
  }
  Point At(size_t i) const { return Point{x[i], y[i]}; }
};

/// Growable SoA columns of D-dimensional points, column a holding every
/// point's a-th coordinate: group member lists, grid cells and join sides
/// keep their coordinates here so the block kernels scan contiguous doubles
/// instead of strided point structs.
template <size_t D>
class PointColumns {
 public:
  void Reserve(size_t n) {
    for (std::vector<double>& c : cols_) c.reserve(n);
  }
  /// Replaces the contents with `pts` (Point for D = 2, or PointN<D>).
  template <typename P>
  void Assign(std::span<const P> pts) {
    Clear();
    Reserve(pts.size());
    for (const P& p : pts) PushBack(ToPointN(p));
  }
  void PushBack(const PointN<D>& p) {
    for (size_t a = 0; a < D; ++a) cols_[a].push_back(p[a]);
  }
  void Clear() {
    for (std::vector<double>& c : cols_) c.clear();
  }
  size_t size() const { return cols_[0].size(); }
  const double* col(size_t a) const { return cols_[a].data(); }
  PointN<D> operator[](size_t i) const {
    PointN<D> p;
    for (size_t a = 0; a < D; ++a) p[a] = cols_[a][i];
    return p;
  }

 private:
  std::array<std::vector<double>, D> cols_;
};

/// Calls fn(i) for every set bit of an n-point selection mask, in ascending
/// index order — the order every scalar call site enumerated matches in, so
/// arbitration-order-sensitive consumers (union sequences, JOIN-ANY
/// candidate lists) behave identically.
template <typename Fn>
void ForEachSetBit(const uint64_t* mask, size_t n, Fn&& fn) {
  const size_t words = KernelMaskWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

// ---- Kernel entry points (runtime-dispatched) ---------------------------
//
// Each writes KernelMaskWords(n) words to `mask` (bits >= n cleared), sets
// bit i iff the predicate holds for point i, and returns the number of set
// bits. The dispatched wrappers also bump the sgb.kernel.invocations /
// sgb.kernel.pairs registry counters.

/// Bit i set iff (qx-xs[i])² + (qy-ys[i])² <= eps_sq.
size_t SimilarBlockL2(double qx, double qy, const double* xs,
                      const double* ys, size_t n, double eps_sq,
                      uint64_t* mask);

/// Bit i set iff fmax(|qx-xs[i]|, |qy-ys[i]|) <= eps (fmax NaN semantics).
size_t SimilarBlockLInf(double qx, double qy, const double* xs,
                        const double* ys, size_t n, double eps,
                        uint64_t* mask);

/// Bit i set iff rect.Contains({xs[i], ys[i]}) — the ε-rectangle pre-filter.
size_t RectFilterBlock(const Rect& rect, const double* xs, const double* ys,
                       size_t n, uint64_t* mask);

// ---- Named variants (differential tests, microbenchmarks) ---------------

size_t SimilarBlockL2Scalar(double qx, double qy, const double* xs,
                            const double* ys, size_t n, double eps_sq,
                            uint64_t* mask);
size_t SimilarBlockLInfScalar(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps,
                              uint64_t* mask);
size_t RectFilterBlockScalar(const Rect& rect, const double* xs,
                             const double* ys, size_t n, uint64_t* mask);

size_t SimilarBlockL2Portable(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps_sq,
                              uint64_t* mask);
size_t SimilarBlockLInfPortable(double qx, double qy, const double* xs,
                                const double* ys, size_t n, double eps,
                                uint64_t* mask);
size_t RectFilterBlockPortable(const Rect& rect, const double* xs,
                               const double* ys, size_t n, uint64_t* mask);

#if defined(SGB_HAVE_AVX2)
size_t SimilarBlockL2Avx2(double qx, double qy, const double* xs,
                          const double* ys, size_t n, double eps_sq,
                          uint64_t* mask);
size_t SimilarBlockLInfAvx2(double qx, double qy, const double* xs,
                            const double* ys, size_t n, double eps,
                            uint64_t* mask);
size_t RectFilterBlockAvx2(const Rect& rect, const double* xs,
                           const double* ys, size_t n, uint64_t* mask);
#endif

/// Name of the variant the dispatched entry points resolved to at startup:
/// "scalar", "portable" or "avx2". Resolution order: the SGB_KERNEL_VARIANT
/// environment variable if set to an available variant, else AVX2 when
/// compiled in and supported by the CPU, else portable.
const char* ActiveKernelVariant();

/// Batched similarity predicate with the comparison threshold precomputed
/// once per operator (ε² for L2, ε for L∞) and the metric dispatched once
/// instead of per pair.
class BlockSimilarity {
 public:
  BlockSimilarity(Metric metric, double epsilon)
      : scalar_(metric, epsilon) {}

  /// Evaluates q against an n-point SoA block; returns the match count and
  /// writes the selection mask (KernelMaskWords(n) words).
  size_t Match(const Point& q, const double* xs, const double* ys, size_t n,
               uint64_t* mask) const {
    return scalar_.metric() == Metric::kL2
               ? SimilarBlockL2(q.x, q.y, xs, ys, n, scalar_.epsilon_sq(),
                                mask)
               : SimilarBlockLInf(q.x, q.y, xs, ys, n, scalar_.epsilon(),
                                  mask);
  }

  /// Evaluates q against points [begin, begin + n) of D SoA columns; bit i
  /// of the mask stands for point begin + i. D = 2 runs the dispatched
  /// block kernels above; D >= 3 runs one portable column loop through the
  /// same distance functions as geom::Similar<D>, so its selections are
  /// those of the pairwise predicate.
  template <size_t D>
  size_t Match(const PointN<D>& q, const PointColumns<D>& cols,
               size_t begin, size_t n, uint64_t* mask) const {
    if constexpr (D == 2) {
      return Match(Point{q[0], q[1]}, cols.col(0) + begin,
                   cols.col(1) + begin, n, mask);
    } else {
      std::fill(mask, mask + KernelMaskWords(n), uint64_t{0});
      const bool l2 = scalar_.metric() == Metric::kL2;
      size_t count = 0;
      for (size_t i = 0; i < n; ++i) {
        const PointN<D> p = cols[begin + i];
        const bool hit = l2 ? DistanceL2Squared(q, p) <= scalar_.epsilon_sq()
                            : DistanceLInf(q, p) <= scalar_.epsilon();
        mask[i / 64] |= uint64_t{hit} << (i % 64);
        count += hit;
      }
      return count;
    }
  }

  /// The hoisted-threshold scalar predicate, for single-pair call sites.
  const SimilarityPredicate& scalar() const { return scalar_; }

 private:
  SimilarityPredicate scalar_;
};

}  // namespace sgb::geom

#endif  // SGB_GEOM_KERNELS_H_
