#ifndef SGB_GEOM_EPSILON_RECT_H_
#define SGB_GEOM_EPSILON_RECT_H_

#include <cmath>
#include <span>

#include "geom/rect.h"

namespace sgb::geom {

/// The ε-All bounding rectangle of a group (Definition 5 and Figure 5).
///
/// Maintained as the intersection of the 2ε boxes around every member:
///     Rε-All = ⋂_{m ∈ g} [m.x - ε, m.x + ε] x [m.y - ε, m.y + ε]
///
/// Invariants (Section 6.3):
///  * L∞:  p ∈ Rε-All  ⇔  δ∞(p, m) <= ε for every member m, in exact
///         arithmetic. In floating point the bounds m ± ε round on their
///         own and can disagree with |p - m| <= ε by an ulp, so the exact
///         test is LInfWithinEpsilonOfAll on the MBR instead.
///  * L2:  p ∉ Rε-All  ⇒  p cannot join the group (conservative filter);
///         points inside may still be false positives, refined by the
///         convex-hull test.
///
/// The class also tracks the member bounding box (MBR), which the
/// overlap-rectangle test of Procedure 4 uses: a group can only contain a
/// point within ε of p if its MBR intersects Rect::Around(p, ε).
class EpsilonRect {
 public:
  EpsilonRect() = default;
  explicit EpsilonRect(double epsilon) : epsilon_(epsilon) {}

  /// Shrinks the ε-All rectangle and grows the MBR for a newly inserted
  /// member. O(1) per insertion, as required for the bounds-checking
  /// approach to beat all-pairs.
  void Insert(const Point& p) {
    if (empty_) {
      all_rect_ = Rect::Around(p, epsilon_);
      mbr_ = Rect{p, p};
      empty_ = false;
      return;
    }
    all_rect_.Clip(Rect::Around(p, epsilon_));
    mbr_.Expand(p);
  }

  /// Rebuilds both rectangles from a member list. Needed after removals
  /// (ELIMINATE / FORM-NEW-GROUP pull members out of groups): the ε-All
  /// rectangle is an intersection and cannot be un-shrunk incrementally.
  void Rebuild(std::span<const Point> members) {
    *this = EpsilonRect(epsilon_);
    for (const Point& p : members) Insert(p);
  }

  /// True iff the group is empty.
  bool empty() const { return empty_; }

  double epsilon() const { return epsilon_; }

  /// The ε-All rectangle (empty Rect when the group has no members).
  const Rect& all_rect() const { return all_rect_; }

  /// The members' minimum bounding rectangle.
  const Rect& mbr() const { return mbr_; }

  /// PointInRectangleTest of Procedure 4: membership filter for p.
  bool PointInRectangleTest(const Point& p) const {
    return !empty_ && all_rect_.Contains(p);
  }

  /// Exact L∞ membership test: true iff |p - m| <= ε on every axis for
  /// every member m. Per axis the farthest member lies on an MBR bound, and
  /// the rounded |p - x| grows monotonically with the distance of x from p,
  /// so this evaluates the pairwise predicate's own subtraction on the
  /// deciding member.
  bool LInfWithinEpsilonOfAll(const Point& p) const {
    return !empty_ &&
           std::fmax(std::fabs(p.x - mbr_.lo.x), std::fabs(p.x - mbr_.hi.x)) <=
               epsilon_ &&
           std::fmax(std::fabs(p.y - mbr_.lo.y), std::fabs(p.y - mbr_.hi.y)) <=
               epsilon_;
  }

  /// OverlapRectangleTest of Procedure 4: can this group contain a point
  /// within L∞ distance ε of p? (Superset of the L2 case.) Measures p's gap
  /// to the MBR per axis with the pairwise predicate's own subtraction, so
  /// unlike intersecting the MBR with Rect::Around(p, ε), whose bounds round
  /// on their own, it never rejects a group holding a member within ε.
  bool OverlapRectangleTest(const Point& p) const {
    return !empty_ && AxisGap(p.x, mbr_.lo.x, mbr_.hi.x) <= epsilon_ &&
           AxisGap(p.y, mbr_.lo.y, mbr_.hi.y) <= epsilon_;
  }

  /// Distance from v to the interval [lo, hi] (0 inside it, and for NaN).
  static double AxisGap(double v, double lo, double hi) {
    return v < lo ? lo - v : v > hi ? v - hi : 0.0;
  }

 private:
  double epsilon_ = 0.0;
  bool empty_ = true;
  Rect all_rect_ = Rect::Empty();
  Rect mbr_ = Rect::Empty();
};

}  // namespace sgb::geom

#endif  // SGB_GEOM_EPSILON_RECT_H_
