// checkin_sgb: SGB-Any and SGB-All over an in-memory, skewed check-in
// table, planned automatically after ANALYZE. Nearly all the work is in the
// core, index and geom layers and in the planner's tier and dop choice.
#include <cstdio>

#include "workload.h"

namespace perfbench {

namespace {

using sgb::engine::Database;

// Governed statements: a 50 ms deadline, and how far past it a statement
// may return before it counts as failed. The 2-D statements group the
// fixed 200 000-row gov2d table; at their best forced dop they need more
// than 1 s (over 20 times the deadline), so no plausible speedup lets them
// finish in time, and they return about 20 ms after the deadline, far
// inside the grace. The 3-D statements group the fixed 40 000-row gov3d
// table, small enough that its scan ends before the deadline and the 3-D
// core, which does not see the deadline, runs to its end.
constexpr int kTimeoutMs = 50;
constexpr double kGraceMs = 100;

class CheckinSgb final : public Workload {
 public:
  explicit CheckinSgb(const Config& config) : config_(config) {
    rows_ = config.small ? 3000 : 50000;
    // Above about 105 000 rows the planner runs SGB-All at dop 4, where it
    // is about twice as slow as at dop 1 on these hotspots (ε = 0.07, L∞).
    large_rows_ = config.small ? 6000 : 130000;
  }

  sgb::Status Setup() override {
    tables_ = MakeCheckinTables(rows_, 1000, config_.seed);
    large_ = MakeCheckinTables(large_rows_, 1000, Mix(config_.seed) + 2);
    db_.Register("checkins", tables_.checkins);
    db_.Register("users", tables_.users);
    db_.Register("checkins_large", large_.checkins);
    db_.Register("gov2d", MakeGovTable(200000));
    db_.Register("gov3d", MakeGovTable(40000));
    auto created = db_.Query(
        "CREATE TABLE feed (user_id INT, latitude DOUBLE, longitude DOUBLE, ts DOUBLE, "
        "id INT, region INT)");
    if (!created.ok()) return created.status();
    auto analyzed = db_.Query("ANALYZE");
    if (!analyzed.ok()) return analyzed.status();
    governed_ = db_.CreateSession();
    auto set = db_.Query(*governed_, "SET timeout = " + std::to_string(kTimeoutMs));
    if (!set.ok()) return set.status();
    // New check-ins for the feed table, a separate stream from the same seed.
    feed_ = MakeCheckinTables(config_.small ? 400 : 40000, 1000, Mix(config_.seed) + 1);
    return sgb::Status::OK();
  }

  void Prepare() override { BuildStatements(); }

  LoopResult Loop(double seconds, uint64_t min_statements) override {
    LoopResult result;
    result.recs.resize(1);
    const Clock::time_point t0 = Clock::now();
    do {
      RunPass(stmts_, pass_++, &result.recs[0]);
    } while (MsSince(t0) < seconds * 1e3 || result.recs[0].attempted < min_statements);
    result.wall_s = MsSince(t0) / 1e3;
    return result;
  }

  std::vector<std::string> Finish() override {
    auto count = db_.Query("SELECT count(*) FROM feed");
    if (!count.ok() || ToRows(count.value()) != Rows{{std::to_string(acked_)}}) {
      return {"feed count differs from the rows acknowledged"};
    }
    return {};
  }

  LedgerInput Ledger() override {
    LedgerInput in;
    in.mem = &db_;
    in.tables = {{"CREATE TABLE checkins (user_id INT, latitude DOUBLE, longitude DOUBLE, "
                  "ts DOUBLE, id INT, region INT)",
                  tables_.checkins},
                 {"CREATE TABLE users (uid INT, home INT, joined DOUBLE)", tables_.users}};
    in.rel = CheckinRelSlots(tables_);
    for (const Pt<3>& p : tables_.pts) in.pts2.push_back({p[0], p[1]});
    in.pts3 = tables_.pts;
    in.eps_sparse = kSparse;
    in.eps_dense = kDense;
    in.eps3 = kEps3;
    in.selects = selects_;
    in.short_sql = "SELECT count(*) FROM users";
    in.auto_all_sql = large_sql_;
    return in;
  }

 private:
  static constexpr double kSparse = 0.01;  // degrees
  static constexpr double kDense = 0.05;
  static constexpr double kEps3 = 0.05;
  static constexpr double kLargeEps = 0.07;

  std::function<Outcome()> Query(const std::string& sql) {
    selects_.push_back(sql);
    return [this, sql]() -> Outcome {
      auto r = db_.Query(sql);
      if (!r.ok()) return r.status();
      return ToRows(r.value());
    };
  }

  void AddSgb2(const std::string& name, const std::string& table, const CheckinTables& t,
               bool any, Dist dist, double eps, const char* overlap) {
    const std::string sql = "SELECT count(*), array_agg(id) FROM " + table +
                            " GROUP BY latitude, longitude " +
                            SgbClause(any, dist, eps, overlap);
    std::vector<Pt<2>> pts;
    for (const Pt<3>& p : t.pts) pts.push_back({p[0], p[1]});
    const bool eliminate = std::string(overlap) == "ELIMINATE";
    stmts_.push_back(StableStmt(name, any ? Kind::kSgbAny : Kind::kSgbAll, Query(sql),
                                [pts, any, dist, eps, eliminate](const Rows& rows) {
                                  return CheckSgbRows<2>(rows, pts, any, dist, eps,
                                                         eliminate);
                                }));
  }

  void AddSgb3(const std::string& name, bool any) {
    const std::string sql =
        "SELECT count(*), array_agg(id) FROM checkins GROUP BY latitude, longitude, ts " +
        SgbClause(any, Dist::kL2, kEps3, "JOIN-ANY");
    const std::vector<Pt<3>> pts = tables_.pts;
    stmts_.push_back(StableStmt(name, any ? Kind::kSgbAny : Kind::kSgbAll, Query(sql),
                                [pts, any](const Rows& rows) {
                                  return CheckSgbRows<3>(rows, pts, any, Dist::kL2,
                                                         kEps3, false);
                                }));
  }

  /// A statement on the governed session: it must end in DeadlineExceeded,
  /// no later than the grace period past its deadline.
  void AddGoverned(const std::string& name, bool any, const std::string& sql) {
    Stmt stmt;
    stmt.name = name;
    stmt.kind = any ? Kind::kSgbAny : Kind::kSgbAll;
    stmt.make = [this, name, sql](uint64_t) {
      Op op;
      op.run = [this, sql]() -> Outcome {
        auto r = db_.Query(*governed_, sql);
        if (!r.ok()) return r.status();
        return ToRows(r.value());
      };
      op.check = [name](const Outcome& out, double ms) -> Check {
        if (out.ok()) return Failed(name + ": finished instead of timing out");
        if (out.status().code() != sgb::Status::Code::kDeadlineExceeded) {
          return Failed(name + ": " + out.status().ToString());
        }
        if (ms - kTimeoutMs > kGraceMs) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s: returned %.0f ms after its %d ms deadline", name.c_str(),
                        ms - kTimeoutMs, kTimeoutMs);
          return Failed(buf);
        }
        return Ok();
      };
      return op;
    };
    stmts_.push_back(std::move(stmt));
  }

  void BuildStatements() {
    const CheckinTables& c = tables_;
    AddSgb2("all_l2_sparse_joinany", "checkins", c, false, Dist::kL2, kSparse, "JOIN-ANY");
    AddSgb2("all_l2_dense_eliminate", "checkins", c, false, Dist::kL2, kDense, "ELIMINATE");
    AddSgb2("all_linf_sparse_formnew", "checkins", c, false, Dist::kLInf, kSparse,
            "FORM-NEW-GROUP");
    AddSgb2("all_linf_dense_joinany", "checkins", c, false, Dist::kLInf, kDense, "JOIN-ANY");
    AddSgb2("any_l2_sparse", "checkins", c, true, Dist::kL2, kSparse, "");
    AddSgb2("any_l2_dense", "checkins", c, true, Dist::kL2, kDense, "");
    AddSgb2("any_linf_sparse", "checkins", c, true, Dist::kLInf, kSparse, "");
    AddSgb2("any_linf_dense", "checkins", c, true, Dist::kLInf, kDense, "");
    // The larger table, where the automatic plan runs SGB-All at dop 4.
    AddSgb2("large_all_linf_joinany", "checkins_large", large_, false, Dist::kLInf,
            kLargeEps, "JOIN-ANY");
    large_sql_ = selects_.back();
    AddSgb3("all_3d", false);
    AddSgb3("any_3d", true);

    const std::vector<RelSlot> slots = CheckinRelSlots(tables_);
    const RelSlot count = slots[0];
    stmts_.push_back(StableStmt("count", Kind::kRelational, Query(count.sql),
                                [count](const Rows& rows) {
                                  const std::string e = CompareRows(count.expected, rows, true);
                                  return e.empty() ? Ok() : Wrong(e);
                                }));
    const CheckinTables* t = &tables_;
    stmts_.push_back(StableStmt(
        "top_users", Kind::kRelational,
        Query("SELECT user_id, count(*) AS n FROM checkins GROUP BY user_id "
              "ORDER BY n DESC LIMIT 10"),
        [t](const Rows& rows) { return CheckTopUsers(*t, rows); }));

    // Four INSERTs of 10 000 check-ins per pass into the append-only feed
    // table, then a count that must equal every row acknowledged so far.
    // Statements this long (≈40 ms) time steadily on a noisy host; 1 000-row
    // ones spread by 25% from run to run.
    const size_t batch = config_.small ? 20 : 10000;
    for (uint64_t k = 0; k < 4; ++k) {
      Stmt insert;
      insert.name = "feed_insert_" + std::to_string(k);
      insert.kind = Kind::kInsert;
      insert.make = [this, batch, k](uint64_t pass) {
        const size_t n = feed_.checkins->NumRows();
        const size_t begin = ((pass * 4 + k) * batch) % (n - batch);
        Op op;
        op.inserted_rows = batch;
        auto sql = std::make_shared<std::string>(InsertSql("feed", *feed_.checkins, begin, begin + batch));
        op.run = [this, sql]() -> Outcome {
          auto r = db_.Query(*sql);
          if (!r.ok()) return r.status();
          return ToRows(r.value());
        };
        op.check = [this, batch](const Outcome& out, double) -> Check {
          if (!out.ok()) return Failed("feed_insert: " + out.status().ToString());
          acked_ += batch;
          return Ok();
        };
        return op;
      };
      stmts_.push_back(insert);
    }
    Stmt feed_count;
    feed_count.name = "feed_count";
    feed_count.kind = Kind::kRelational;
    feed_count.make = [this](uint64_t) {
      Op op;
      op.run = [this]() -> Outcome {
        auto r = db_.Query("SELECT count(*) FROM feed");
        if (!r.ok()) return r.status();
        return ToRows(r.value());
      };
      op.check = [this](const Outcome& out, double) -> Check {
        if (!out.ok()) return Failed("feed_count: " + out.status().ToString());
        if (out.value() != Rows{{std::to_string(acked_)}}) {
          return Wrong("feed_count: count differs from the rows acknowledged");
        }
        return Ok();
      };
      return op;
    };
    stmts_.push_back(feed_count);

    AddGoverned("gov_all_2d", false,
                "SELECT count(*) FROM gov2d GROUP BY x, y " +
                    SgbClause(false, Dist::kL2, 0.1, "JOIN-ANY"));
    AddGoverned("gov_any_2d", true,
                "SELECT count(*) FROM gov2d GROUP BY x, y " +
                    SgbClause(true, Dist::kL2, 0.2, ""));
    AddGoverned("gov_all_3d", false,
                "SELECT count(*) FROM gov3d GROUP BY x, y, z " +
                    SgbClause(false, Dist::kL2, kEps3, "JOIN-ANY"));
    AddGoverned("gov_any_3d", true,
                "SELECT count(*) FROM gov3d GROUP BY x, y, z " +
                    SgbClause(true, Dist::kL2, kEps3, ""));
  }

  Config config_;
  size_t rows_ = 0, large_rows_ = 0;
  Database db_;
  sgb::engine::SessionPtr governed_;
  CheckinTables tables_, large_, feed_;
  std::string large_sql_;
  std::vector<Stmt> stmts_;
  std::vector<std::string> selects_;
  uint64_t acked_ = 0;  // rows acknowledged by INSERT into feed
  uint64_t pass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCheckinSgb(const Config& config) {
  return std::make_unique<CheckinSgb>(config);
}

}  // namespace perfbench
