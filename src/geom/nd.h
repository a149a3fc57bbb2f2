#ifndef SGB_GEOM_ND_H_
#define SGB_GEOM_ND_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

#include "geom/point.h"  // for Metric

namespace sgb::geom {

/// A point in D-dimensional space. The paper's core focus is 2-D (and 3-D)
/// grouping attributes; the N-D generalization lives here so SGB can group
/// on three or more attributes (see core/sgb_nd.h).
template <size_t D>
struct PointN {
  static_assert(D >= 1, "dimension must be positive");
  std::array<double, D> c{};

  double& operator[](size_t i) { return c[i]; }
  double operator[](size_t i) const { return c[i]; }

  friend bool operator==(const PointN&, const PointN&) = default;
};

/// The 2-D Point as a PointN<2>, and PointN<D> as itself, so D-generic code
/// can read either input.
inline PointN<2> ToPointN(const Point& p) { return PointN<2>{{p.x, p.y}}; }
template <size_t D>
const PointN<D>& ToPointN(const PointN<D>& p) {
  return p;
}

template <size_t D>
double DistanceL2Squared(const PointN<D>& a, const PointN<D>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < D; ++i) {
    const double d = a.c[i] - b.c[i];
    sum += d * d;
  }
  return sum;
}

template <size_t D>
double DistanceL2(const PointN<D>& a, const PointN<D>& b) {
  return std::sqrt(DistanceL2Squared(a, b));
}

template <size_t D>
double DistanceLInf(const PointN<D>& a, const PointN<D>& b) {
  double best = 0.0;
  for (size_t i = 0; i < D; ++i) {
    best = std::fmax(best, std::fabs(a.c[i] - b.c[i]));
  }
  return best;
}

/// The similarity predicate ξδ,ε in D dimensions.
template <size_t D>
bool Similar(const PointN<D>& a, const PointN<D>& b, Metric metric,
             double epsilon) {
  if (metric == Metric::kL2) {
    return DistanceL2Squared(a, b) <= epsilon * epsilon;
  }
  return DistanceLInf(a, b) <= epsilon;
}

/// Axis-aligned box in D dimensions; empty when any lo[i] > hi[i].
template <size_t D>
struct RectN {
  PointN<D> lo;
  PointN<D> hi;

  RectN() {
    for (size_t i = 0; i < D; ++i) {
      lo.c[i] = std::numeric_limits<double>::infinity();
      hi.c[i] = -std::numeric_limits<double>::infinity();
    }
  }
  RectN(const PointN<D>& low, const PointN<D>& high) : lo(low), hi(high) {}

  static RectN Empty() { return RectN(); }

  /// The L∞ ball of radius ε around p.
  static RectN Around(const PointN<D>& p, double epsilon) {
    RectN r;
    for (size_t i = 0; i < D; ++i) {
      r.lo.c[i] = p.c[i] - epsilon;
      r.hi.c[i] = p.c[i] + epsilon;
    }
    return r;
  }

  bool IsEmpty() const {
    for (size_t i = 0; i < D; ++i) {
      if (lo.c[i] > hi.c[i]) return true;
    }
    return false;
  }

  bool Contains(const PointN<D>& p) const {
    for (size_t i = 0; i < D; ++i) {
      if (p.c[i] < lo.c[i] || p.c[i] > hi.c[i]) return false;
    }
    return true;
  }

  bool Contains(const RectN& r) const {
    for (size_t i = 0; i < D; ++i) {
      if (r.lo.c[i] < lo.c[i] || r.hi.c[i] > hi.c[i]) return false;
    }
    return true;
  }

  bool Intersects(const RectN& r) const {
    if (IsEmpty() || r.IsEmpty()) return false;
    for (size_t i = 0; i < D; ++i) {
      if (lo.c[i] > r.hi.c[i] || r.lo.c[i] > hi.c[i]) return false;
    }
    return true;
  }

  void Expand(const PointN<D>& p) {
    for (size_t i = 0; i < D; ++i) {
      lo.c[i] = std::fmin(lo.c[i], p.c[i]);
      hi.c[i] = std::fmax(hi.c[i], p.c[i]);
    }
  }

  void Expand(const RectN& r) {
    for (size_t i = 0; i < D; ++i) {
      lo.c[i] = std::fmin(lo.c[i], r.lo.c[i]);
      hi.c[i] = std::fmax(hi.c[i], r.hi.c[i]);
    }
  }

  void Clip(const RectN& r) {
    for (size_t i = 0; i < D; ++i) {
      lo.c[i] = std::fmax(lo.c[i], r.lo.c[i]);
      hi.c[i] = std::fmin(hi.c[i], r.hi.c[i]);
    }
  }

  /// D-volume (0 for empty boxes).
  double Area() const {
    if (IsEmpty()) return 0.0;
    double v = 1.0;
    for (size_t i = 0; i < D; ++i) v *= hi.c[i] - lo.c[i];
    return v;
  }

  double Enlargement(const RectN& r) const {
    RectN merged = *this;
    merged.Expand(r);
    return merged.Area() - Area();
  }

  friend bool operator==(const RectN&, const RectN&) = default;
};

}  // namespace sgb::geom

#endif  // SGB_GEOM_ND_H_
