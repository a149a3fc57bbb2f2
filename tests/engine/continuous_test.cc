// Streaming incremental SGB (docs/STREAMING.md): CREATE CONTINUOUS QUERY
// registration and validation, watermark-driven window close, the
// batch-equivalence differential regime (every close is checked inside the
// engine; these tests drive it across metrics x semantics x overlap
// policies x dop x window shapes), out-of-order arrival convergence,
// bounded-regrouping and permutation-invariance properties of the
// incremental cores, stats-refresh plan invalidation, fault recovery at
// the window-close site, and the server SUBSCRIBE surface end to end —
// including the 8-subscriber hammer the streaming-smoke TSan CI job runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_incremental.h"
#include "engine/continuous.h"
#include "engine/executor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/checkin.h"

namespace sgb::engine {
namespace {

// ---- helpers ------------------------------------------------------------

/// Round-trippable double literal for INSERT statements.
std::string D(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One INSERT statement carrying every row of the (user_id, t, x, y)
/// stream slice.
std::string InsertSql(const std::string& table, const std::vector<Row>& rows,
                      size_t begin, size_t end) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = begin; i < end; ++i) {
    const Row& r = rows[i];
    if (i != begin) sql += ", ";
    sql += "(" + std::to_string(r[0].AsInt()) + ", " + D(r[1].AsDouble()) +
           ", " + D(r[2].AsDouble()) + ", " + D(r[3].AsDouble()) + ")";
  }
  return sql;
}

Status CreateEventsTable(Database& db, const std::string& table = "events") {
  return db
      .Query("CREATE TABLE " + table +
             " (user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
      .status();
}

/// One int64 cell from system.continuous_queries for the named query.
int64_t SysInt(Database& db, const std::string& name, const std::string& col) {
  auto result = db.Query("SELECT " + col +
                         " FROM system.continuous_queries WHERE name = '" +
                         name + "'");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok() || result.value().NumRows() != 1) return -1;
  return result.value().rows()[0][0].AsInt();
}

/// The per-close facts the differential regime pins: everything except the
/// per-arrival delta kinds (those legitimately depend on arrival order).
struct CloseRecord {
  double start = 0.0;
  double end = 0.0;
  size_t rows = 0;
  size_t groups = 0;
  size_t eliminated = 0;
  size_t deltas = 0;

  friend bool operator==(const CloseRecord&, const CloseRecord&) = default;
};

/// Subscribes to `name`, appending one CloseRecord per delivered batch.
/// Engine-level delivery is synchronous with the INSERT, so no locking.
uint64_t RecordCloses(Database& db, const std::string& name,
                      std::vector<CloseRecord>* out) {
  auto sub = db.continuous().Subscribe(name, [out](const DeltaBatch& b) {
    out->push_back(CloseRecord{b.window_start, b.window_end, b.rows,
                               b.num_groups, b.eliminated, b.deltas.size()});
    return true;
  });
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  return sub.ok() ? sub.value() : 0;
}

std::string UniqueUnixPath(const char* tag) {
  return "/tmp/sgb_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

class ContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// ---- window semantics ---------------------------------------------------

TEST_F(ContinuousTest, TumblingWindowClosesAndStreamsDeltas) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  // Two near points and one far one inside [0, 10); nothing closes yet.
  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 0.5, 0, 0), (2, 1.0, 1, 0), "
               "(3, 2.0, 8, 8)")
          .ok());
  EXPECT_TRUE(closes.empty());
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 1);

  // Watermark 12 >= 10 closes the first window.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 12.0, 3, 3)").ok());
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0],
            (CloseRecord{0.0, 10.0, 3u, 2u, 0u, 4u}));  // 3 arrivals + summary

  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);
  EXPECT_EQ(SysInt(db, "cq", "differential_checks"), 1);
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), 4);
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 1);
  EXPECT_EQ(SysInt(db, "cq", "late_rows"), 0);
}

TEST_F(ContinuousTest, SlidingWindowGroupsRowInEveryCoveringWindow) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY slide AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW SLIDING 10 ADVANCE 5 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "slide", &closes);

  // t=7 lives in [0,10) and [5,15).
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 7, 2, 2)").ok());
  EXPECT_EQ(SysInt(db, "slide", "open_windows"), 2);

  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 100, 50, 50)").ok());
  ASSERT_EQ(closes.size(), 2u);
  EXPECT_EQ(closes[0], (CloseRecord{0.0, 10.0, 1u, 1u, 0u, 2u}));
  EXPECT_EQ(closes[1], (CloseRecord{5.0, 15.0, 1u, 1u, 0u, 2u}));
}

TEST_F(ContinuousTest, LateRowsAreSkippedAndCounted) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 1, 0, 0)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 25, 9, 9)").ok());
  ASSERT_EQ(closes.size(), 1u);

  // t=5 targets the already-closed [0,10): dropped as late, grouping and
  // counters elsewhere untouched, the INSERT itself succeeds.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (3, 5, 0, 0)").ok());
  EXPECT_EQ(closes.size(), 1u);
  EXPECT_EQ(SysInt(db, "cq", "late_rows"), 1);
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), 3);
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);

  // NULL coordinates are skipped (not late, not grouped).
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 26, NULL, 1)").ok());
  EXPECT_EQ(SysInt(db, "cq", "skipped_rows"), 1);
}

// ---- registration and validation ----------------------------------------

TEST_F(ContinuousTest, CreateAndDropSemantics) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  const std::string body =
      " AS SELECT count(*) FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
      "WITHIN 1 WINDOW TUMBLING 10 ON t";
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq" + body).ok());

  EXPECT_EQ(db.Query("CREATE CONTINUOUS QUERY cq" + body).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(
      db.Query("CREATE CONTINUOUS QUERY IF NOT EXISTS cq" + body).ok());

  EXPECT_EQ(db.Query("DROP CONTINUOUS QUERY nope").status().code(),
            Status::Code::kNotFound);
  EXPECT_TRUE(db.Query("DROP CONTINUOUS QUERY IF EXISTS nope").ok());
  EXPECT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.Query("SELECT count(*) FROM system.continuous_queries")
                .value()
                .rows()[0][0]
                .AsInt(),
            0);
}

TEST_F(ContinuousTest, CreateValidatesTheSelectBody) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  auto expect_invalid = [&](const std::string& sql, const char* what) {
    auto status = db.Query(sql).status();
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << what;
  };
  // No WINDOW clause.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1",
      "missing window");
  // No similarity clause (plain GROUP BY never parses into one here).
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "WINDOW TUMBLING 10 ON t",
      "missing similarity");
  // WHERE is not supported in a continuous body.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "WHERE x > 0 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 "
      "WINDOW TUMBLING 10 ON t",
      "where");
  // SLIDING with advance > size.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 "
      "WINDOW SLIDING 5 ADVANCE 10 ON t",
      "advance > size");
  // Non-numeric time column.
  ASSERT_TRUE(db.Query("CREATE TABLE tagged (tag TEXT, x DOUBLE, y DOUBLE)")
                  .ok());
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM tagged "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 WINDOW TUMBLING 10 ON tag",
      "string time column");
  // Unknown base table.
  auto missing = db.Query(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM nowhere "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 WINDOW TUMBLING 10 ON t");
  EXPECT_FALSE(missing.ok());

  // A bare SELECT may not carry WINDOW: it belongs to continuous queries.
  auto bare = db.Query(
      "SELECT count(*) FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
      "WITHIN 1 WINDOW TUMBLING 10 ON t");
  EXPECT_EQ(bare.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(bare.status().message().find("CONTINUOUS"), std::string::npos);
}

// ---- the differential sweep ---------------------------------------------

// Every close differentially checks the maintained grouping against a
// from-scratch batch execution and fails the INSERT on any divergence, so
// driving a realistic stream through every semantics x metric x overlap x
// dop x window combination IS the equivalence assertion; the counters
// confirm the checks actually ran.
TEST_F(ContinuousTest, DifferentialSweepAcrossMetricsPoliciesDopAndWindows) {
  workload::CheckinStreamConfig stream_config;
  stream_config.base = workload::BrightkiteLike(120, 29);
  stream_config.duration = 50.0;
  stream_config.out_of_order_jitter = 4.0;
  const std::vector<Row> stream = workload::GenerateCheckinStream(
      stream_config, /*users=*/50);

  const std::vector<std::string> similarities = {
      "DISTANCE-TO-ANY",
      "DISTANCE-TO-ALL",  // metric appended below; policy after WITHIN
  };
  const std::vector<std::string> metrics = {"L2", "LINF"};
  const std::vector<std::string> policies = {"JOIN-ANY", "ELIMINATE",
                                             "FORM-NEW-GROUP"};
  const std::vector<int> dops = {1, 4};
  const std::vector<std::string> windows = {
      "WINDOW TUMBLING 10 ON t", "WINDOW SLIDING 10 ADVANCE 5 ON t"};

  std::vector<std::string> clauses;
  for (const std::string& metric : metrics) {
    clauses.push_back("DISTANCE-TO-ANY " + metric + " WITHIN 0.8");
    for (const std::string& policy : policies) {
      clauses.push_back("DISTANCE-TO-ALL " + metric +
                        " WITHIN 0.8 ON-OVERLAP " + policy);
    }
  }

  for (const std::string& clause : clauses) {
    for (const int dop : dops) {
      for (const std::string& window : windows) {
        const std::string spec = clause + " PARALLEL " +
                                 std::to_string(dop) + " " + window;
        SCOPED_TRACE(spec);
        Database db;
        ASSERT_TRUE(CreateEventsTable(db).ok());
        ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY sweep AS "
                             "SELECT count(*) FROM events GROUP BY x, y " +
                             spec)
                        .ok());
        std::vector<CloseRecord> closes;
        RecordCloses(db, "sweep", &closes);

        // Jittered arrival order, four batches, then a flush far past the
        // last window: cross-batch jitter also exercises the late path.
        for (size_t b = 0; b < stream.size(); b += 30) {
          auto insert = db.Query(InsertSql(
              "events", stream, b, std::min(b + 30, stream.size())));
          ASSERT_TRUE(insert.ok()) << insert.status().ToString();
        }
        ASSERT_TRUE(
            db.Query("INSERT INTO events VALUES (0, 1000, 0, 0)").ok());

        EXPECT_GE(closes.size(), 4u);
        EXPECT_EQ(static_cast<int64_t>(closes.size()),
                  SysInt(db, "sweep", "windows_closed"));
        EXPECT_EQ(SysInt(db, "sweep", "differential_checks"),
                  SysInt(db, "sweep", "windows_closed"));
        for (const CloseRecord& c : closes) {
          EXPECT_GT(c.rows, 0u);
          EXPECT_EQ(c.deltas, c.rows + 1);  // one per arrival + summary
        }
      }
    }
  }
}

TEST_F(ContinuousTest, LInfPairAHairBeyondEpsilonStaysApartAtClose) {
  // 0.55 - 0.5 = 0.050000000000000044 > ε, yet 0.55 lies inside the
  // ε-window of 0.5: the maintained grouping must verify window hits under
  // L∞ too, or it merges the pair and the close's differential check
  // against the batch execution fails.
  for (const int dop : {1, 4}) {
    SCOPED_TRACE(dop);
    Database db;
    ASSERT_TRUE(CreateEventsTable(db).ok());
    ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY hair AS "
                         "SELECT count(*) FROM events GROUP BY x, y "
                         "DISTANCE-TO-ANY LINF WITHIN 0.05 PARALLEL " +
                         std::to_string(dop) +
                         " WINDOW TUMBLING 10 ON t")
                    .ok());
    std::vector<CloseRecord> closes;
    RecordCloses(db, "hair", &closes);
    ASSERT_TRUE(
        db.Query("INSERT INTO events VALUES (1, 1, 0.5, 0), (2, 2, 0.55, 0)")
            .ok());
    auto flush = db.Query("INSERT INTO events VALUES (0, 1000, 0, 0)");
    ASSERT_TRUE(flush.ok()) << flush.status().ToString();
    ASSERT_FALSE(closes.empty());
    EXPECT_EQ(closes[0].rows, 2u);
    EXPECT_EQ(closes[0].groups, 2u);
    EXPECT_EQ(SysInt(db, "hair", "differential_checks"),
              SysInt(db, "hair", "windows_closed"));
  }
}

// ---- out-of-order convergence -------------------------------------------

// The same row multiset delivered in different arrival orders must close
// every window with identical results: content-defined canonical order and
// content-only arbitration keys make each close a pure function of the
// window's rows.
TEST_F(ContinuousTest, ShuffledArrivalsConvergeToIdenticalCloses) {
  workload::CheckinStreamConfig stream_config;
  stream_config.base = workload::BrightkiteLike(90, 31);
  stream_config.duration = 40.0;
  stream_config.out_of_order_jitter = 0.0;
  std::vector<Row> rows =
      workload::GenerateCheckinStream(stream_config, /*users=*/40);

  const std::vector<std::string> specs = {
      "DISTANCE-TO-ANY L2 WITHIN 0.8 WINDOW TUMBLING 10 ON t",
      "DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP JOIN-ANY "
      "WINDOW SLIDING 10 ADVANCE 5 ON t",
      "DISTANCE-TO-ALL LINF WITHIN 0.8 ON-OVERLAP ELIMINATE "
      "WINDOW TUMBLING 10 ON t",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    std::vector<std::vector<CloseRecord>> runs;
    std::vector<int64_t> delta_events;
    for (const uint64_t shuffle_seed : {0ull, 101ull, 202ull}) {
      // Order 0 is event-time sorted; the others are full shuffles. Each
      // run delivers everything in ONE statement (closes happen after the
      // whole statement, so no ordering can make a row late) followed by
      // the flush.
      std::vector<Row> order = rows;
      if (shuffle_seed == 0) {
        std::sort(order.begin(), order.end(),
                  [](const Row& a, const Row& b) {
                    return a[1].AsDouble() < b[1].AsDouble();
                  });
      } else {
        Rng rng(shuffle_seed);
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1],
                    order[static_cast<size_t>(rng.NextInt(
                        0, static_cast<int64_t>(i) - 1))]);
        }
      }
      Database db;
      ASSERT_TRUE(CreateEventsTable(db).ok());
      ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY conv AS "
                           "SELECT count(*) FROM events GROUP BY x, y " +
                           spec)
                      .ok());
      std::vector<CloseRecord> closes;
      RecordCloses(db, "conv", &closes);
      ASSERT_TRUE(
          db.Query(InsertSql("events", order, 0, order.size())).ok());
      ASSERT_TRUE(
          db.Query("INSERT INTO events VALUES (0, 1000, 0, 0)").ok());
      EXPECT_EQ(SysInt(db, "conv", "late_rows"), 0);
      delta_events.push_back(SysInt(db, "conv", "delta_events"));
      runs.push_back(std::move(closes));
    }
    ASSERT_GE(runs[0].size(), 3u);
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    EXPECT_EQ(delta_events[0], delta_events[1]);
    EXPECT_EQ(delta_events[0], delta_events[2]);
  }
}

// ---- incremental core properties ----------------------------------------

/// Canonical order for direct core tests: sort by (x, y), index tiebreak.
std::vector<size_t> CanonicalOrder(const std::vector<geom::Point>& pts) {
  std::vector<size_t> order(pts.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::tie(pts[a].x, pts[a].y, a) < std::tie(pts[b].x, pts[b].y, b);
  });
  return order;
}

TEST_F(ContinuousTest, IncrementalAnyIsPermutationInvariantAndMonotone) {
  Rng rng(47);
  std::vector<geom::Point> pts;
  for (size_t i = 0; i < 150; ++i) {
    pts.push_back(
        {rng.NextUniform(0, 12), rng.NextUniform(0, 12)});
  }
  core::SgbAnyOptions options;
  options.epsilon = 0.9;

  // Reference grouping: batch SgbAny over the canonical arrangement.
  const std::vector<size_t> canonical = CanonicalOrder(pts);
  std::vector<geom::Point> arranged;
  for (size_t i : canonical) arranged.push_back(pts[i]);
  auto batch = core::SgbAny(arranged, options);
  ASSERT_TRUE(batch.ok());

  for (const uint64_t perm_seed : {1ull, 2ull, 3ull, 4ull}) {
    SCOPED_TRACE(perm_seed);
    std::vector<size_t> arrival(pts.size());
    std::iota(arrival.begin(), arrival.end(), size_t{0});
    Rng perm(perm_seed);
    for (size_t i = arrival.size(); i > 1; --i) {
      std::swap(arrival[i - 1],
                arrival[static_cast<size_t>(
                    perm.NextInt(0, static_cast<int64_t>(i) - 1))]);
    }

    core::IncrementalSgbAny inc(options);
    // arrival_pos[original index] = position in this insertion order.
    std::vector<size_t> arrival_pos(pts.size());
    size_t groups = 0;
    for (size_t k = 0; k < arrival.size(); ++k) {
      arrival_pos[arrival[k]] = k;
      auto event = inc.Insert(pts[arrival[k]]);
      ASSERT_TRUE(event.ok());
      // Monotonicity: an arrival creates one group, joins one, or merges
      // m >= 2 into one — the component count never jumps any other way.
      switch (event.value().kind) {
        case core::DeltaEvent::Kind::kGroupFormed:
          groups += 1;
          break;
        case core::DeltaEvent::Kind::kMemberAdded:
          break;
        case core::DeltaEvent::Kind::kGroupsMerged:
          ASSERT_GE(event.value().merged_groups, 2u);
          groups -= event.value().merged_groups - 1;
          break;
      }
      ASSERT_EQ(inc.num_groups(), groups);
    }

    // Snapshot over the canonical arrangement is bit-identical to batch,
    // whatever order the points arrived in.
    std::vector<size_t> order;  // canonical, expressed in arrival positions
    for (size_t i : canonical) order.push_back(arrival_pos[i]);
    auto snap = inc.Snapshot(order);
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(snap.value().num_groups, batch.value().num_groups);
    EXPECT_EQ(snap.value().group_of, batch.value().group_of);
  }
}

TEST_F(ContinuousTest, IncrementalAllMatchesSerialBatchWithIdentityKeys) {
  Rng rng(53);
  std::vector<geom::Point> pts;
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < 120; ++i) {
    pts.push_back({rng.NextUniform(0, 10), rng.NextUniform(0, 10)});
    keys.push_back(rng.NextU64());
  }
  for (const auto on_overlap :
       {core::OverlapClause::kJoinAny, core::OverlapClause::kEliminate,
        core::OverlapClause::kFormNewGroup}) {
    SCOPED_TRACE(static_cast<int>(on_overlap));
    core::SgbAllOptions options;
    options.epsilon = 0.8;
    options.on_overlap = on_overlap;

    core::IncrementalSgbAll inc(options);
    for (size_t i = 0; i < pts.size(); ++i) {
      ASSERT_TRUE(inc.Insert(pts[i], keys[i]).ok());
    }
    const std::vector<size_t> canonical = CanonicalOrder(pts);
    auto snap = inc.Snapshot(canonical);
    ASSERT_TRUE(snap.ok());

    std::vector<geom::Point> arranged;
    std::vector<uint64_t> arranged_keys;
    for (size_t i : canonical) {
      arranged.push_back(pts[i]);
      arranged_keys.push_back(keys[i]);
    }
    core::SgbAllOptions batch_options = options;
    batch_options.arbitration_keys = arranged_keys;
    auto batch = core::SgbAll(arranged, batch_options);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(snap.value().num_groups, batch.value().num_groups);
    EXPECT_EQ(snap.value().group_of, batch.value().group_of);
  }
}

TEST_F(ContinuousTest, IncrementalAllRegroupingIsBoundedToTheDirtyNeighborhood) {
  // Two interaction components far beyond 3 epsilon of each other: a big
  // cluster whose size varies, and a small fixed cluster that receives a
  // late arrival. The snapshot after that arrival must re-run only the
  // small component — its distance-computation count cannot depend on the
  // big cluster's size.
  auto run = [](size_t big_cluster_size) {
    core::SgbAllOptions options;
    options.epsilon = 0.3;
    core::IncrementalSgbAll inc(options);
    Rng rng(61);
    uint64_t key = 1;
    for (size_t i = 0; i < big_cluster_size; ++i) {
      EXPECT_TRUE(
          inc.Insert({rng.NextUniform(0, 2), rng.NextUniform(0, 2)}, key++)
              .ok());
    }
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_TRUE(inc.Insert({100.0 + 0.1 * static_cast<double>(i), 100.0},
                             key++)
                      .ok());
    }
    std::vector<size_t> order(inc.size());
    std::iota(order.begin(), order.end(), size_t{0});
    EXPECT_TRUE(inc.Snapshot(order).ok());  // everything clean now

    // One arrival lands in the small far cluster.
    EXPECT_TRUE(inc.Insert({100.35, 100.0}, key++).ok());
    order.push_back(order.size());
    core::SgbAllStats stats;
    EXPECT_TRUE(inc.Snapshot(order, &stats).ok());
    return stats.distance_computations;
  };
  const size_t small_run = run(200);
  const size_t big_run = run(500);
  EXPECT_EQ(small_run, big_run);
  // And the re-run really is local: 7 points of work, not hundreds.
  EXPECT_LE(small_run, 100u);
}

// ---- stats refresh and plan invalidation --------------------------------

TEST_F(ContinuousTest, ContinuousPlanRebuildsOnCatalogVersionBump) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());

  // Un-analyzed table: inserts never move the catalog version, so the
  // continuous plan stays put. 30 rows make the later stats-refresh
  // threshold 3 rows (10% of the analyzed count).
  std::string seed_sql = "INSERT INTO events VALUES ";
  for (int i = 0; i < 30; ++i) {
    if (i > 0) seed_sql += ", ";
    seed_sql += "(" + std::to_string(i) + ", " + std::to_string(i) + ", " +
                std::to_string(i % 7) + ", " + std::to_string(i % 5) + ")";
  }
  ASSERT_TRUE(db.Query(seed_sql).ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 0);

  // ANALYZE bumps the catalog version; the next INSERT re-resolves the
  // stored AST before applying its rows, and later inserts below the
  // stats-refresh threshold leave the plan alone.
  ASSERT_TRUE(db.Query("ANALYZE events").ok());
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 31, 2, 2)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 1);
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 32, 3, 3)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 1);

  // A stats-refresh bump (>=10% growth over the 30 analyzed rows) lands
  // before OnInsert inside the same INSERT, so that statement both bumps
  // and rebuilds.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (3, 33, 4, 4), "
                       "(4, 34, 5, 5), (5, 35, 6, 6), (6, 36, 7, 7)")
                  .ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 2);
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (7, 37, 1, 1)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 2);

  // Rebuild failure surfaces as the INSERT's status: recreating the base
  // table without the time column makes the re-resolve fail cleanly, and
  // dropping the query restores plain INSERT service.
  ASSERT_TRUE(db.Query("DROP TABLE events").ok());
  ASSERT_TRUE(db.Query("CREATE TABLE events "
                       "(user_id INT, ts DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  EXPECT_EQ(db.Query("INSERT INTO events VALUES (6, 6, 5, 5)")
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_TRUE(db.Query("INSERT INTO events VALUES (7, 7, 6, 6)").ok());
}

// ---- fault injection and recovery ---------------------------------------

TEST_F(ContinuousTest, WindowCloseFaultLeavesWindowOpenAndRetrySucceeds) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 1, 0, 0), (2, 2, 1, 0)").ok());

  FaultRegistry::Global().ArmNthHit("continuous.window_close", 1);
  auto faulted = db.Query("INSERT INTO events VALUES (3, 12, 5, 5)");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), Status::Code::kInternal);
  EXPECT_NE(faulted.status().message().find("continuous.window_close"),
            std::string::npos);
  FaultRegistry::Global().Reset();

  // The failed close published nothing and left both windows open; the
  // base rows stayed appended.
  EXPECT_TRUE(closes.empty());
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 0);
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 2);
  EXPECT_EQ(
      db.Query("SELECT count(*) FROM events").value().rows()[0][0].AsInt(),
      3);

  // The next INSERT retries the close; the subscription resumes with the
  // correct first delta batch — the one the fault blocked.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 13, 6, 6)").ok());
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0], (CloseRecord{0.0, 10.0, 2u, 1u, 0u, 3u}));
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);

  // Dropping the query drains every maintained charge.
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.continuous().memory().usage_bytes(), 0u);
}

TEST_F(ContinuousTest, OpenWindowStateIsChargedAndDrainedOnDrop) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());
  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 1, 0, 0), (2, 2, 1, 1)").ok());
  EXPECT_GT(db.continuous().memory().usage_bytes(), 0u);
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.continuous().memory().usage_bytes(), 0u);
}

// ---- concurrent maintenance ---------------------------------------------

TEST_F(ContinuousTest, ConcurrentInsertersMaintainOneQuerySafely) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 5 ON t")
                  .ok());
  std::atomic<size_t> closes{0};
  auto sub = db.continuous().Subscribe("cq", [&](const DeltaBatch&) {
    closes.fetch_add(1);
    return true;
  });
  ASSERT_TRUE(sub.ok());

  constexpr int kThreads = 4;
  constexpr int kRowsEach = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kRowsEach; ++i) {
        const double t = rng.NextUniform(0, 100);
        auto insert = db.Query(
            "INSERT INTO events VALUES (" + std::to_string(w) + ", " + D(t) +
            ", " + D(rng.NextUniform(0, 10)) + ", " +
            D(rng.NextUniform(0, 10)) + ")");
        if (!insert.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Whatever interleaving happened, the books balance: every row was seen,
  // every close was differentially checked and delivered.
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), kThreads * kRowsEach);
  EXPECT_EQ(SysInt(db, "cq", "differential_checks"),
            SysInt(db, "cq", "windows_closed"));
  EXPECT_EQ(static_cast<int64_t>(closes.load()),
            SysInt(db, "cq", "windows_closed"));
  EXPECT_GT(closes.load(), 0u);
}

// ---- the server SUBSCRIBE surface ---------------------------------------

TEST_F(ContinuousTest, SubscribeStreamsEventsAcrossConnections) {
  Database db;
  server::ServerOptions options;
  options.unix_path = UniqueUnixPath("continuous_sub");
  server::Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto writer = server::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE TABLE events "
                         "(user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                         "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                         "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());

  auto reader = server::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(reader.ok());
  // Subscribing to a missing query is NotFound; double-subscribe invalid.
  EXPECT_EQ(reader.value().Subscribe("nope").code(),
            Status::Code::kNotFound);
  ASSERT_TRUE(reader.value().Subscribe("cq").ok());
  EXPECT_EQ(reader.value().Subscribe("cq").code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(reader.value().Unsubscribe("other").code(),
            Status::Code::kNotFound);

  ASSERT_TRUE(writer.value()
                  .Query("INSERT INTO events VALUES (1, 1, 0, 0), "
                         "(2, 2, 1, 0), (3, 12, 8, 8)")
                  .ok());

  // Three events for the close of [0, 10): two arrivals plus the summary.
  std::vector<server::DeltaEvent> events;
  for (int i = 0; i < 3; ++i) {
    auto event = reader.value().NextEvent();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    events.push_back(std::move(event).value());
  }
  for (const server::DeltaEvent& e : events) {
    EXPECT_EQ(e.query, "cq");
    EXPECT_EQ(e.window_start, 0.0);
    EXPECT_EQ(e.window_end, 10.0);
  }
  EXPECT_EQ(events[0].kind, "group_formed");
  EXPECT_EQ(events[2].kind, "window_closed");
  EXPECT_EQ(events[2].point, -1);
  EXPECT_EQ(events[2].groups, 1);

  // Interleaving: a round trip on the subscribed connection still works
  // while further EVENT pushes arrive — they are buffered, not lost, and
  // PING stays parseable.
  ASSERT_TRUE(
      writer.value().Query("INSERT INTO events VALUES (4, 25, 2, 2)").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(reader.value().Ping().ok());
  auto buffered = reader.value().NextEvent();
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value().window_start, 10.0);

  ASSERT_TRUE(reader.value().Unsubscribe("cq").ok());
  ASSERT_TRUE(reader.value().Quit().ok());
  ASSERT_TRUE(writer.value().Quit().ok());
  server.Stop();
}

// The streaming-smoke hammer: eight subscribers on one continuous query, a
// writer closing windows underneath them, half the subscribers detaching
// mid-stream. The TSan CI job runs exactly this test for the push-path
// write races.
TEST_F(ContinuousTest, EightSubscriberHammer) {
  Database db;
  server::ServerOptions options;
  options.tcp = true;
  server::Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto writer = server::Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE TABLE events "
                         "(user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                         "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                         "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());

  constexpr int kSubscribers = 8;
  constexpr int kWindows = 20;
  std::vector<server::Client> subscribers;
  for (int s = 0; s < kSubscribers; ++s) {
    auto client = server::Client::ConnectLoopback(server.tcp_port());
    ASSERT_TRUE(client.ok());
    subscribers.push_back(std::move(client).value());
    ASSERT_TRUE(subscribers.back().Subscribe("cq").ok());
  }

  std::atomic<int> failures{0};
  std::thread producer([&] {
    Rng rng(77);
    for (int w = 0; w <= kWindows; ++w) {
      // 4 rows inside window w, then the next iteration's rows close it.
      const double base = 10.0 * w;
      std::string sql = "INSERT INTO events VALUES ";
      for (int r = 0; r < 4; ++r) {
        if (r > 0) sql += ", ";
        sql += "(" + std::to_string(r) + ", " +
               D(base + 1.0 + 2.0 * r) + ", " +
               D(rng.NextUniform(0, 6)) + ", " + D(rng.NextUniform(0, 6)) +
               ")";
      }
      if (!writer.value().Query(sql).ok()) failures.fetch_add(1);
    }
  });

  std::vector<std::thread> consumers;
  for (int s = 0; s < kSubscribers; ++s) {
    consumers.emplace_back([&, s] {
      // Odd subscribers detach after half the stream; even ones drain all
      // of it. Every window delivers 5 events (4 arrivals + summary).
      const int want = (s % 2 == 0) ? kWindows : kWindows / 2;
      int seen_closes = 0;
      while (seen_closes < want) {
        auto event = subscribers[s].NextEvent();
        if (!event.ok()) {
          failures.fetch_add(1);
          ADD_FAILURE() << "subscriber " << s << ": "
                        << event.status().ToString();
          return;
        }
        if (event.value().kind == "window_closed") ++seen_closes;
      }
      if (s % 2 == 1) {
        if (!subscribers[s].Unsubscribe("cq").ok()) failures.fetch_add(1);
      }
    });
  }
  producer.join();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Disconnecting subscribers (without UNSUBSCRIBE) detaches them.
  for (auto& client : subscribers) client.Abort();
  subscribers.clear();
  ASSERT_TRUE(writer.value().Quit().ok());
  server.Stop();

  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), kWindows);
  EXPECT_EQ(SysInt(db, "cq", "subscribers"), 0);
}

}  // namespace
}  // namespace sgb::engine
