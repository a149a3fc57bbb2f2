#include "core/sgb_incremental.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/memory_tracker.h"
#include "common/query_context.h"
#include "geom/rect.h"
#include "obs/metrics.h"

namespace sgb::core {

namespace {

using geom::Metric;
using geom::Point;
using geom::Rect;

/// Flat per-point estimate of the maintained state: the point itself, its
/// R-tree entry, the union-find slots, and (SGB-All) key/dirty/cache slots.
/// Charged up front so a budget breach fails the Insert before any
/// mutation. Estimates, not malloc-exact, as everywhere MemoryTracker is
/// used.
constexpr size_t kBytesPerPoint = 128;

Status ChargePersistent(MemoryTracker* memory, size_t* charged_bytes) {
  if (memory == nullptr) return Status::OK();
  SGB_RETURN_IF_ERROR(memory->TryConsume(kBytesPerPoint));
  *charged_bytes += kBytesPerPoint;
  return Status::OK();
}

void ReleasePersistent(MemoryTracker* memory, size_t charged_bytes) {
  if (memory != nullptr && charged_bytes > 0) memory->Release(charged_bytes);
}

DeltaEvent::Kind ClassifyArrival(size_t distinct_prior_groups) {
  if (distinct_prior_groups == 0) return DeltaEvent::Kind::kGroupFormed;
  if (distinct_prior_groups == 1) return DeltaEvent::Kind::kMemberAdded;
  return DeltaEvent::Kind::kGroupsMerged;
}

}  // namespace

const char* ToString(DeltaEvent::Kind kind) {
  switch (kind) {
    case DeltaEvent::Kind::kGroupFormed:
      return "group_formed";
    case DeltaEvent::Kind::kMemberAdded:
      return "member_added";
    case DeltaEvent::Kind::kGroupsMerged:
      return "groups_merged";
  }
  return "unknown";
}

// ---- IncrementalSgbAny ----------------------------------------------------

IncrementalSgbAny::IncrementalSgbAny(const SgbAnyOptions& options,
                                     MemoryTracker* memory)
    : options_(options), memory_(memory) {}

IncrementalSgbAny::~IncrementalSgbAny() {
  ReleasePersistent(memory_, charged_bytes_);
}

Status IncrementalSgbAny::ChargeOnePoint() {
  return ChargePersistent(memory_, &charged_bytes_);
}

Result<DeltaEvent> IncrementalSgbAny::Insert(const Point& p) {
  if (options_.query_ctx != nullptr) {
    SGB_RETURN_IF_ERROR(options_.query_ctx->CheckAbort());
  }
  SGB_RETURN_IF_ERROR(ChargeOnePoint());

  const size_t i = points_.size();
  points_.push_back(p);
  forest_.AddElement();

  // Procedure 8's window query over the processed points, one arrival at a
  // time; pre-union roots identify the distinct prior groups touched. The
  // window's bounds p ± ε round on their own, so it can both hold a point a
  // hair beyond ε and miss one a hair within: it is widened by a relative
  // 2^-40 to a superset, and every hit is verified under both metrics.
  const geom::SimilarityPredicate similar(options_.metric, options_.epsilon);
  const double slack =
      (std::fabs(p.x) + std::fabs(p.y) + options_.epsilon) * 0x1p-40;
  std::vector<size_t> roots;
  points_ix_.Search(Rect::Around(p, options_.epsilon + slack),
                    [&](const Rect& r, uint64_t id) {
                      if (!similar(p, Point{r.lo.x, r.lo.y})) return;
                      const size_t root = forest_.Find(id);
                      if (std::find(roots.begin(), roots.end(), root) ==
                          roots.end()) {
                        roots.push_back(root);
                      }
                    });
  for (const size_t root : roots) forest_.Union(i, root);
  points_ix_.Insert(p, i);

  obs::MetricsRegistry::Global()
      .GetCounter("sgb.any.incremental_inserts")
      .Add(1);

  DeltaEvent event;
  event.point_index = i;
  event.merged_groups = roots.size();
  event.kind = ClassifyArrival(roots.size());
  return event;
}

Result<Grouping> IncrementalSgbAny::Snapshot(
    std::span<const size_t> canonical_order) {
  if (options_.query_ctx != nullptr) {
    SGB_RETURN_IF_ERROR(options_.query_ctx->CheckAbort());
  }
  const size_t n = points_.size();
  if (canonical_order.size() != n) {
    return Status::InvalidArgument(
        "IncrementalSgbAny: canonical_order must permute all points");
  }
  Grouping out;
  out.group_of.assign(n, Grouping::kEliminated);
  std::vector<size_t> label_of_root(n, Grouping::kEliminated);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = canonical_order[k];
    if (i >= n) {
      return Status::InvalidArgument(
          "IncrementalSgbAny: canonical_order index out of range");
    }
    const size_t root = forest_.Find(i);
    if (label_of_root[root] == Grouping::kEliminated) {
      label_of_root[root] = out.num_groups++;
    }
    out.group_of[k] = label_of_root[root];
  }
  return out;
}

// ---- IncrementalSgbAll ----------------------------------------------------

IncrementalSgbAll::IncrementalSgbAll(const SgbAllOptions& options,
                                     MemoryTracker* memory)
    : options_(options), memory_(memory) {
  // The component re-runs are serial by construction (a component is one
  // unit of the parallel decomposition already).
  options_.degree_of_parallelism = 1;
}

IncrementalSgbAll::~IncrementalSgbAll() {
  ReleasePersistent(memory_, charged_bytes_);
}

Status IncrementalSgbAll::ChargeOnePoint() {
  return ChargePersistent(memory_, &charged_bytes_);
}

Result<DeltaEvent> IncrementalSgbAll::Insert(const Point& p,
                                             uint64_t arbitration_key) {
  if (options_.query_ctx != nullptr) {
    SGB_RETURN_IF_ERROR(options_.query_ctx->CheckAbort());
  }
  SGB_RETURN_IF_ERROR(ChargeOnePoint());

  const size_t i = points_.size();
  points_.push_back(p);
  keys_.push_back(arbitration_key);
  dirty_.push_back(1);
  cached_local_.push_back(Grouping::kEliminated);
  components_.AddElement();

  // One 3ε L∞ window query serves both purposes: the interaction-graph
  // edges (every hit — the window *is* the 3ε L∞ ball) and the delta
  // classification (hits that are genuine ε-neighbours of the arrival).
  std::vector<size_t> comp_roots;
  std::vector<size_t> eps_roots;
  interaction_ix_.Search(
      Rect::Around(p, 3.0 * options_.epsilon),
      [&](const Rect& r, uint64_t id) {
        const Point q{r.lo.x, r.lo.y};
        const size_t root = components_.Find(id);
        if (std::find(comp_roots.begin(), comp_roots.end(), root) ==
            comp_roots.end()) {
          comp_roots.push_back(root);
        }
        if (geom::Similar(p, q, options_.metric, options_.epsilon) &&
            std::find(eps_roots.begin(), eps_roots.end(), root) ==
                eps_roots.end()) {
          eps_roots.push_back(root);
        }
      });
  for (const size_t root : comp_roots) components_.Union(i, root);
  interaction_ix_.Insert(p, i);

  obs::MetricsRegistry::Global()
      .GetCounter("sgb.all.incremental_inserts")
      .Add(1);

  DeltaEvent event;
  event.point_index = i;
  event.merged_groups = eps_roots.size();
  event.kind = ClassifyArrival(eps_roots.size());
  return event;
}

Result<Grouping> IncrementalSgbAll::Snapshot(
    std::span<const size_t> canonical_order, SgbAllStats* stats) {
  if (options_.query_ctx != nullptr) {
    SGB_RETURN_IF_ERROR(options_.query_ctx->CheckAbort());
  }
  const size_t n = points_.size();
  if (canonical_order.size() != n) {
    return Status::InvalidArgument(
        "IncrementalSgbAll: canonical_order must permute all points");
  }

  // Interaction components with members in canonical order, ids by first
  // appearance in canonical order — the same decomposition RunParallel
  // uses, so per-component serial re-runs compose into the whole-window
  // serial result exactly (docs/PARALLELISM.md).
  std::vector<size_t> comp_of_root(n, Grouping::kEliminated);
  std::vector<std::vector<size_t>> comp_members;
  std::vector<size_t> comp_of_point(n, 0);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = canonical_order[k];
    if (i >= n) {
      return Status::InvalidArgument(
          "IncrementalSgbAll: canonical_order index out of range");
    }
    const size_t root = components_.Find(i);
    if (comp_of_root[root] == Grouping::kEliminated) {
      comp_of_root[root] = comp_members.size();
      comp_members.emplace_back();
    }
    comp_of_point[i] = comp_of_root[root];
    comp_members[comp_of_root[root]].push_back(i);
  }

  // Re-run the serial core on dirty components only, caching the
  // component-local assignment. Clean components keep their cache: their
  // membership (and their members' relative canonical order) cannot have
  // changed, because any union involves a fresh — and therefore dirty —
  // arrival.
  size_t recomputed = 0;
  for (const std::vector<size_t>& members : comp_members) {
    const bool is_dirty =
        std::any_of(members.begin(), members.end(),
                    [&](size_t m) { return dirty_[m] != 0; });
    if (!is_dirty) continue;
    ++recomputed;
    std::vector<Point> local_points;
    std::vector<uint64_t> local_keys;
    local_points.reserve(members.size());
    local_keys.reserve(members.size());
    for (const size_t m : members) {
      local_points.push_back(points_[m]);
      local_keys.push_back(keys_[m]);
    }
    SgbAllOptions local_options = options_;
    local_options.arbitration_keys = local_keys;
    Result<Grouping> local = SgbAll(local_points, local_options, stats);
    if (!local.ok()) return local.status();
    for (size_t j = 0; j < members.size(); ++j) {
      cached_local_[members[j]] = local.value().group_of[j];
      dirty_[members[j]] = 0;
    }
  }
  obs::MetricsRegistry::Global()
      .GetCounter("sgb.all.incremental_recomputed_components")
      .Add(recomputed);

  // Canonical output labels by first appearance of (component, local id).
  Grouping out;
  out.group_of.assign(n, Grouping::kEliminated);
  std::unordered_map<uint64_t, size_t> label_of;
  label_of.reserve(n / 4 + 1);
  for (size_t k = 0; k < n; ++k) {
    const size_t i = canonical_order[k];
    const size_t local = cached_local_[i];
    if (local == Grouping::kEliminated) continue;
    const uint64_t key =
        static_cast<uint64_t>(comp_of_point[i]) * (n + 1) + local;
    const auto [it, inserted] = label_of.try_emplace(key, out.num_groups);
    if (inserted) ++out.num_groups;
    out.group_of[k] = it->second;
  }
  return out;
}

}  // namespace sgb::core
