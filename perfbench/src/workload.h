// The workload interface main.cc runs, the per-layer ledger
// input each workload provides, and the check-in shaped tables two of the
// workloads share.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/executor.h"
#include "oracle.h"

namespace perfbench {

struct Config {
  uint64_t seed = 1;
  bool small = false;  // seconds-scale sizes for the benchmark's own test
  int nproc = 4;
  std::string dir;     // scratch directory for storage files, inside the checkout
};

/// A relational statement in one of the six fixed slots every workload
/// fills (count, filter, groupby_few, groupby_many, orderby_limit, join),
/// with the benchmark's own hash-map result.
struct RelSlot {
  std::string slot;
  std::string sql;
  size_t rows_in = 0;  // rows of the tables the statement reads
  Rows expected;
  bool ordered = false;
};

/// What the per-layer ledger measures, all taken from the workload's own
/// data.
struct LedgerInput {
  sgb::engine::Database* mem = nullptr;  // the workload's in-memory tables
  /// Tables to copy into paged storage (create statement, table).
  std::vector<std::pair<std::string, sgb::engine::TablePtr>> tables;
  std::vector<RelSlot> rel;
  std::vector<Pt<2>> pts2;  // the points the workload's 2-D SGB groups
  double eps_sparse = 0, eps_dense = 0;
  std::vector<Pt<3>> pts3;
  double eps3 = 0;
  std::vector<std::string> selects;  // the workload's SELECTs, for prepare
  std::string short_sql;             // a short statement, for the server
  /// An SGB-All statement on `mem` whose auto plan the ledger compares
  /// with the forced plans; empty: its own statement on the 2-D points.
  std::string auto_all_sql;
};

struct LoopResult {
  std::vector<Recorder> recs;
  double wall_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs, loads them, runs ANALYZE and starts servers
  /// (timed as set-up).
  virtual sgb::Status Setup() = 0;
  /// Computes the checks' expected results and builds the statement list
  /// (not timed; run once, after the kept set-up).
  virtual void Prepare() = 0;
  /// Runs whole passes until `seconds` have passed and at least
  /// `min_statements` statements have run (at least one pass).
  virtual LoopResult Loop(double seconds, uint64_t min_statements) = 0;
  /// Checks made once after the loops; returns the problems found.
  virtual std::vector<std::string> Finish() = 0;
  virtual LedgerInput Ledger() = 0;
};

std::unique_ptr<Workload> MakeCheckinSgb(const Config& config);
std::unique_ptr<Workload> MakeTpchPaged(const Config& config);
std::unique_ptr<Workload> MakeWireSessions(const Config& config);

/// Per-layer ledger: times calls into each module on the workload's data
/// and adds the per-layer metrics to `report`.
void RunLedger(const LedgerInput& input, const Config& config, Report* report);

// ---- Check-in shaped tables (checkin_sgb, wire_sessions) -----------------------

/// checkins(user_id, latitude, longitude, ts, id, region) from the
/// Brightkite-like generator, and users(uid, home, joined). Every seed
/// draws its check-ins from the same hotspot map, so seeds differ in which
/// check-ins they hold, not in where the cities are. Column order
/// matches the program's own check-in table: the first two numeric columns
/// are user_id and latitude.
struct CheckinTables {
  std::vector<Pt<3>> pts;  // latitude, longitude, ts; index = id
  std::vector<int64_t> user, region;
  std::vector<int64_t> home;    // per uid (1-based; index 0 unused)
  std::vector<double> joined;   // per uid
  sgb::engine::TablePtr checkins, users;
};
CheckinTables MakeCheckinTables(size_t rows, size_t users, uint64_t seed);
std::vector<RelSlot> CheckinRelSlots(const CheckinTables& t);
/// user_id, count of the ten most active users, for the top-k statement.
Check CheckTopUsers(const CheckinTables& t, const Rows& rows);

/// A fixed, seed-independent table (x, y, z, id) for the governed
/// statements: `rows` check-ins with a time-of-day third axis.
sgb::engine::TablePtr MakeGovTable(size_t rows);

/// "INSERT INTO <table> VALUES (...), ..." with full-precision doubles.
std::string InsertSql(const std::string& table, const sgb::engine::Table& src,
                      size_t begin, size_t end);

/// Checks an SGB result whose last column is array_agg(id) over points
/// indexed by id.
template <size_t D>
Check CheckSgbRows(const Rows& rows, const std::vector<Pt<D>>& pts, bool any,
                   Dist dist, double eps, bool eliminate) {
  Groups groups;
  groups.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.empty()) return Wrong("empty row");
    groups.push_back(ParseIdList(row.back()));
    if (row.size() >= 2 && std::to_string(groups.back().size()) != row[0]) {
      return Wrong("count(*) disagrees with the group's members");
    }
  }
  const std::string err = any ? CheckAny<D>(pts, groups, dist, eps)
                              : CheckAll<D>(pts, groups, dist, eps, eliminate);
  return err.empty() ? Ok() : Wrong(err);
}

/// SQL text for an SGB clause.
std::string SgbClause(bool any, Dist dist, double eps, const char* overlap);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
