#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "workload.h"
#include "workload/checkin.h"

namespace perfbench {

using sgb::engine::Column;
using sgb::engine::DataType;
using sgb::engine::Row;
using sgb::engine::Schema;
using sgb::engine::Table;
using sgb::engine::Value;

CheckinTables MakeCheckinTables(size_t rows, size_t users, uint64_t seed) {
  CheckinTables t;
  // The hotspot map is the generator's default one; the seed picks which
  // check-ins of a pool four times the table's size are in the table.
  const std::vector<sgb::geom::Point> pool =
      sgb::workload::GenerateCheckins(sgb::workload::BrightkiteLike(4 * rows));
  SeqRng rng(Mix(seed) ^ 0x7a11);
  std::vector<size_t> pick(pool.size());
  for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  for (size_t i = 0; i < rows; ++i) {
    std::swap(pick[i], pick[i + rng.Next() % (pick.size() - i)]);
  }
  pick.resize(rows);
  std::sort(pick.begin(), pick.end());
  std::vector<sgb::geom::Point> pts;
  for (size_t i : pick) pts.push_back(pool[i]);
  t.home.assign(users + 1, 0);
  t.joined.assign(users + 1, 0.0);
  auto users_table = std::make_shared<Table>(Schema({Column{"uid", DataType::kInt64, ""},
                                            Column{"home", DataType::kInt64, ""},
                                            Column{"joined", DataType::kDouble, ""}}));
  for (size_t u = 1; u <= users; ++u) {
    t.home[u] = rng.Int(0, 7);
    t.joined[u] = rng.Uniform(0, 1);
    (void)users_table->Append(Row{Value::Int(static_cast<int64_t>(u)),
                              Value::Int(t.home[u]), Value::Double(t.joined[u])});
  }
  t.users = users_table;
  auto checkins = std::make_shared<Table>(Schema({Column{"user_id", DataType::kInt64, ""},
                                               Column{"latitude", DataType::kDouble, ""},
                                               Column{"longitude", DataType::kDouble, ""},
                                               Column{"ts", DataType::kDouble, ""},
                                               Column{"id", DataType::kInt64, ""},
                                               Column{"region", DataType::kInt64, ""}}));
  checkins->Reserve(rows);
  for (size_t i = 0; i < pts.size(); ++i) {
    const int64_t u = rng.Int(1, static_cast<int64_t>(users));
    // Generator axes: x is longitude-like, y latitude-like.
    t.pts.push_back({pts[i].y, pts[i].x, rng.Uniform(0, 1)});
    t.user.push_back(u);
    t.region.push_back(t.home[static_cast<size_t>(u)]);
    (void)checkins->Append(Row{Value::Int(u), Value::Double(t.pts[i][0]),
                                 Value::Double(t.pts[i][1]),
                                 Value::Double(t.pts[i][2]),
                                 Value::Int(static_cast<int64_t>(i)),
                                 Value::Int(t.region.back())});
  }
  t.checkins = checkins;
  return t;
}

std::vector<RelSlot> CheckinRelSlots(const CheckinTables& t) {
  const size_t n = t.pts.size();
  std::vector<RelSlot> slots;

  slots.push_back({"count", "SELECT count(*) FROM checkins", n,
                   {{std::to_string(n)}}, true});

  {
    size_t c = 0;
    double s = 0;
    for (size_t i = 0; i < n; ++i) {
      if (t.pts[i][0] > 40 && t.pts[i][1] < -95) {
        ++c;
        s += t.pts[i][2];
      }
    }
    slots.push_back({"filter",
                     "SELECT count(*), sum(ts) FROM checkins "
                     "WHERE latitude > 40 AND longitude < -95",
                     n,
                     {{std::to_string(c), c == 0 ? "NULL" : Sig6(s)}},
                     true});
  }
  {
    std::map<int64_t, std::pair<size_t, double>> by_region;
    for (size_t i = 0; i < n; ++i) {
      auto& e = by_region[t.region[i]];
      ++e.first;
      e.second += t.pts[i][2];
    }
    Rows rows;
    for (const auto& [k, e] : by_region) {
      rows.push_back({std::to_string(k), std::to_string(e.first), Sig6(e.second)});
    }
    slots.push_back({"groupby_few",
                     "SELECT region, count(*), sum(ts) FROM checkins GROUP BY region",
                     n, rows, false});
  }
  {
    std::unordered_map<double, size_t> by_lat;
    for (size_t i = 0; i < n; ++i) ++by_lat[t.pts[i][0]];
    Rows rows;
    for (const auto& [k, c] : by_lat) rows.push_back({Sig6(k), std::to_string(c)});
    slots.push_back({"groupby_many",
                     "SELECT latitude, count(*) FROM checkins GROUP BY latitude", n,
                     rows, false});
  }
  {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    const size_t k = std::min<size_t>(10, n);
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k), idx.end(),
                      [&](size_t a, size_t b) { return t.pts[a][2] > t.pts[b][2]; });
    Rows rows;
    for (size_t i = 0; i < k; ++i) {
      rows.push_back({std::to_string(idx[i]), Sig6(t.pts[idx[i]][2])});
    }
    slots.push_back({"orderby_limit",
                     "SELECT id, ts FROM checkins ORDER BY ts DESC LIMIT 10", n, rows,
                     true});
  }
  {
    size_t c = 0;
    double s = 0;
    for (size_t i = 0; i < n; ++i) {
      const double j = t.joined[static_cast<size_t>(t.user[i])];
      if (j > 0.5) {
        ++c;
        s += j;
      }
    }
    slots.push_back({"join",
                     "SELECT count(*), sum(joined) FROM checkins, users "
                     "WHERE user_id = uid AND joined > 0.5",
                     n + t.users->NumRows(),
                     {{std::to_string(c), c == 0 ? "NULL" : Sig6(s)}},
                     true});
  }
  return slots;
}

Check CheckTopUsers(const CheckinTables& t, const Rows& rows) {
  std::unordered_map<int64_t, int64_t> counts;
  for (int64_t u : t.user) ++counts[u];
  std::vector<int64_t> top;
  for (const auto& [u, c] : counts) top.push_back(c);
  std::sort(top.rbegin(), top.rend());
  top.resize(std::min<size_t>(10, top.size()));
  if (rows.size() != top.size()) return Wrong("top users: row count");
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != 2) return Wrong("top users: column count");
    const int64_t u = std::stoll(rows[i][0]);
    const int64_t c = std::stoll(rows[i][1]);
    if (c != top[i] || counts[u] != c) {
      return Wrong("top users: row " + std::to_string(i) + " has count " +
                   rows[i][1] + ", expected " + std::to_string(top[i]));
    }
  }
  return Ok();
}

sgb::engine::TablePtr MakeGovTable(size_t rows) {
  const std::vector<sgb::geom::Point> pts =
      sgb::workload::GenerateCheckins(sgb::workload::BrightkiteLike(rows, 2009));
  SeqRng rng(2009);
  auto table = std::make_shared<Table>(Schema({Column{"x", DataType::kDouble, ""},
                                               Column{"y", DataType::kDouble, ""},
                                               Column{"z", DataType::kDouble, ""},
                                               Column{"id", DataType::kInt64, ""}}));
  for (size_t i = 0; i < pts.size(); ++i) {
    (void)table->Append(Row{Value::Double(pts[i].y), Value::Double(pts[i].x),
                            Value::Double(rng.Uniform(0, 1)),
                            Value::Int(static_cast<int64_t>(i))});
  }
  return table;
}

std::string InsertSql(const std::string& table, const Table& src, size_t begin,
                      size_t end) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t r = begin; r < end; ++r) {
    if (r > begin) sql += ", ";
    sql += '(';
    const Row& row = src.rows()[r];
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) sql += ", ";
      const Value& v = row[c];
      if (v.type() == DataType::kDouble) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
        sql += buf;
      } else if (v.type() == DataType::kString) {
        sql += "'" + v.AsString() + "'";
      } else {
        sql += v.ToString();
      }
    }
    sql += ')';
  }
  return sql;
}

std::string SgbClause(bool any, Dist dist, double eps, const char* overlap) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "DISTANCE-TO-%s %s WITHIN %.17g%s%s",
                any ? "ANY" : "ALL", dist == Dist::kL2 ? "L2" : "LINF", eps,
                any ? "" : " ON-OVERLAP ", any ? "" : overlap);
  return buf;
}

}  // namespace perfbench
