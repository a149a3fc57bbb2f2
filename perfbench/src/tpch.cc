// tpch_paged: the paper's Table 2 queries (GB1-GB3, SGB1-SGB6) and plain
// relational statements over TPC-H-shaped tables in durable paged storage,
// with WAL-synced INSERTs into an append table between the reads. Joins,
// hash aggregation, sort, the row pipeline, the buffer pool and the WAL do
// most of the work; the SGB inputs are a few thousand points at most.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <unordered_map>

#include "workload.h"
#include "workload/queries.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using sgb::engine::Database;
using sgb::engine::Table;

const char* const kCreate[] = {
    "CREATE TABLE customer (c_custkey INT, c_acctbal DOUBLE, c_nationkey INT)",
    "CREATE TABLE orders (o_orderkey INT, o_custkey INT, o_totalprice DOUBLE, "
    "o_orderdate VARCHAR)",
    "CREATE TABLE lineitem (l_orderkey INT, l_partkey INT, l_suppkey INT, "
    "l_quantity DOUBLE, l_extendedprice DOUBLE, l_discount DOUBLE, l_shipdate VARCHAR, "
    "l_receiptdate VARCHAR, l_shipdays INT, l_receiptdays INT)",
    "CREATE TABLE partsupp (ps_partkey INT, ps_suppkey INT, ps_supplycost DOUBLE)",
    "CREATE TABLE supplier (s_suppkey INT, s_acctbal DOUBLE, s_nationkey INT)",
};

double D(const sgb::engine::Row& r, size_t c) { return r[c].ToDouble(); }
int64_t I(const sgb::engine::Row& r, size_t c) { return r[c].AsInt(); }

/// The SGB input points of the three Table 2 families, computed from the
/// generated rows with hash maps, keyed by the id the query's array_agg
/// reports (custkey, partkey, suppkey).
struct FamilyPoints {
  std::map<int64_t, Pt<2>> buying, parts, supplier;
};

FamilyPoints ComputeFamilies(const sgb::workload::TpchData& d) {
  FamilyPoints f;
  // Buying power: customers with acctbal > 100 joined with their total
  // spend over big orders whose line quantity sums exceed 100.
  std::unordered_map<int64_t, double> qty;
  for (const auto& r : d.lineitem->rows()) qty[I(r, 0)] += D(r, 3);
  std::map<int64_t, double> spend;
  for (const auto& r : d.orders->rows()) {
    if (qty[I(r, 0)] > 100 && D(r, 2) > 30000) {
      spend[I(r, 1)] += D(r, 2);
    }
  }
  for (const auto& r : d.customer->rows()) {
    if (D(r, 1) > 100 && spend.count(I(r, 0))) {
      f.buying[I(r, 0)] = {D(r, 1) / 10000, spend[I(r, 0)] / 1000000};
    }
  }
  // Parts profit: per part, over lineitem x partsupp x supplier.
  std::map<std::pair<int64_t, int64_t>, double> cost;
  for (const auto& r : d.partsupp->rows()) cost[{I(r, 0), I(r, 1)}] = D(r, 2);
  std::set<int64_t> suppliers;
  std::unordered_map<int64_t, double> s_acct;
  for (const auto& r : d.supplier->rows()) {
    suppliers.insert(I(r, 0));
    s_acct[I(r, 0)] = D(r, 1);
  }
  std::map<int64_t, std::pair<double, double>> profit;
  for (const auto& r : d.lineitem->rows()) {
    auto it = cost.find({I(r, 1), I(r, 2)});
    if (it == cost.end() || !suppliers.count(I(r, 2))) continue;
    auto& p = profit[I(r, 1)];
    p.first += D(r, 4) * (1 - D(r, 5)) - it->second * D(r, 3);
    p.second += static_cast<double>(I(r, 9) - I(r, 8));
  }
  for (const auto& [k, p] : profit) f.parts[k] = {p.first / 1000000, p.second / 1000};
  // Top supplier: revenue over a ship-date window vs. account balance.
  std::map<int64_t, double> revenue;
  for (const auto& r : d.lineitem->rows()) {
    const std::string ship = r[6].AsString();
    if (ship > "1995-01-01" && ship < "1996-11-01" && suppliers.count(I(r, 2))) {
      revenue[I(r, 2)] += D(r, 4) * (1 - D(r, 5));
    }
  }
  for (const auto& [k, v] : revenue) f.supplier[k] = {v / 1000000, s_acct[k] / 10000};
  return f;
}

/// Checks an SGB result whose column `ids_col` is array_agg(key).
Check CheckFamily(const Rows& rows, const std::map<int64_t, Pt<2>>& family,
                  size_t ids_col, bool any, Dist dist, double eps, bool eliminate) {
  std::vector<Pt<2>> pts;
  std::unordered_map<int64_t, int64_t> index;
  for (const auto& [k, p] : family) {
    index[k] = static_cast<int64_t>(pts.size());
    pts.push_back(p);
  }
  Groups groups;
  for (const auto& row : rows) {
    std::vector<int64_t> g;
    for (int64_t k : ParseIdList(row[ids_col])) {
      auto it = index.find(k);
      g.push_back(it == index.end() ? -1 : it->second);
    }
    groups.push_back(std::move(g));
  }
  const std::string err = any ? CheckAny<2>(pts, groups, dist, eps)
                              : CheckAll<2>(pts, groups, dist, eps, eliminate);
  return err.empty() ? Ok() : Wrong(err);
}

/// SGB-Any result with count(*) in column 0: the group sizes equal the
/// component sizes.
Check CheckComponentSizes(const Rows& rows, const std::map<int64_t, Pt<2>>& family,
                          Dist dist, double eps) {
  std::vector<Pt<2>> pts;
  for (const auto& [k, p] : family) pts.push_back(p);
  std::vector<int64_t> sizes;
  int64_t total = 0;
  for (const auto& row : rows) {
    sizes.push_back(std::stoll(row[0]));
    total += sizes.back();
  }
  std::unordered_map<size_t, int64_t> comp;
  for (size_t r : Components<2>(pts, dist, eps)) ++comp[r];
  std::vector<int64_t> expect;
  for (const auto& [r, c] : comp) expect.push_back(c);
  std::sort(expect.begin(), expect.end());
  std::sort(sizes.begin(), sizes.end());
  if (sizes == expect) return Ok();
  return Wrong("group sizes differ from the components: " + std::to_string(sizes.size()) +
               " groups of " + std::to_string(total) + " rows, " +
               std::to_string(expect.size()) + " components of " +
               std::to_string(pts.size()) + " points");
}

class TpchPaged final : public Workload {
 public:
  explicit TpchPaged(const Config& config) : config_(config) {}

  sgb::Status Setup() override {
    sgb::workload::TpchConfig tc;
    tc.scale_factor = config_.small ? 0.5 : 10;
    tc.seed = config_.seed;
    data_ = sgb::workload::GenerateTpch(tc);
    data_.RegisterAll(mem_.catalog());
    dir_ = config_.dir + "/tpch";
    std::filesystem::remove_all(dir_);
    auto opened = Database::Open(dir_);
    if (!opened.ok()) return opened.status();
    paged_ = std::make_unique<Database>(std::move(opened.value()));
    const Table* tables[] = {data_.customer.get(), data_.orders.get(),
                             data_.lineitem.get(), data_.partsupp.get(),
                             data_.supplier.get()};
    for (size_t t = 0; t < 5; ++t) {
      SGB_RETURN_IF_ERROR(Exec(kCreate[t]));
      const std::string create = kCreate[t];
      const std::string name = create.substr(13, create.find(' ', 13) - 13);
      for (size_t r = 0; r < tables[t]->NumRows(); r += 500) {
        SGB_RETURN_IF_ERROR(
            Exec(InsertSql(name, *tables[t], r, std::min(tables[t]->NumRows(), r + 500))));
      }
    }
    SGB_RETURN_IF_ERROR(Exec("CREATE TABLE applog (k INT, v DOUBLE)"));
    SGB_RETURN_IF_ERROR(Exec("ANALYZE"));
    SGB_RETURN_IF_ERROR(Exec("CHECKPOINT"));
    uint64_t bytes = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir_)) {
      if (e.is_regular_file()) bytes += e.file_size();
    }
    // The buffer pool holds about a quarter of the data.
    SGB_RETURN_IF_ERROR(Exec("SET buffer_pool_bytes = " + std::to_string(bytes / 4)));
    return sgb::Status::OK();
  }

  void Prepare() override {
    families_ = ComputeFamilies(data_);
    BuildStatements();
  }

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

  /// Closes the storage directory (checkpoint on close) and reopens it:
  /// every acknowledged INSERT must be there.
  std::vector<std::string> Finish() override {
    stmts_.clear();
    paged_.reset();
    auto reopened = Database::Open(dir_);
    if (!reopened.ok()) return {"reopen failed: " + reopened.status().ToString()};
    auto r = reopened.value().Query("SELECT count(*), sum(k) FROM applog");
    const std::string expect_sum = acked_ == 0 ? "NULL" : std::to_string(acked_key_sum_);
    if (!r.ok() || ToRows(r.value()) != Rows{{std::to_string(acked_), expect_sum}}) {
      return {"acknowledged INSERTs missing after reopen"};
    }
    auto li = reopened.value().Query("SELECT count(*) FROM lineitem");
    if (!li.ok() || ToRows(li.value()) != Rows{{std::to_string(data_.lineitem->NumRows())}}) {
      return {"lineitem rows missing after reopen"};
    }
    return {};
  }

  LedgerInput Ledger() override {
    LedgerInput in;
    in.mem = &mem_;
    const sgb::engine::TablePtr tables[] = {data_.customer, data_.orders, data_.lineitem,
                                            data_.partsupp, data_.supplier};
    for (size_t t = 0; t < 5; ++t) in.tables.push_back({kCreate[t], tables[t]});
    in.rel = RelSlots();
    for (const auto& [k, p] : families_.parts) {
      in.pts2.push_back(p);
      in.pts3.push_back({p[0], p[1], p[0] + p[1]});
    }
    in.eps_sparse = 0.01;
    in.eps_dense = kEps;
    in.eps3 = kEps;
    in.selects = selects_;
    in.short_sql = "SELECT count(*) FROM supplier";
    return in;
  }

 private:
  static constexpr double kEps = 0.05;

  sgb::Status Exec(const std::string& sql) {
    auto r = paged_->Query(sql);
    return r.ok() ? sgb::Status::OK() : r.status();
  }

  std::vector<RelSlot> RelSlots() const {
    const auto& li = data_.lineitem->rows();
    const size_t n = li.size();
    std::vector<RelSlot> slots;
    slots.push_back({"count", "SELECT count(*) FROM lineitem", n, {{std::to_string(n)}}, true});
    size_t c = 0;
    double s = 0;
    std::map<double, std::pair<size_t, double>> by_discount;
    std::map<double, size_t> by_price;
    std::vector<double> prices;
    for (const auto& r : li) {
      if (D(r, 3) > 40) {
        ++c;
        s += D(r, 4);
      }
      auto& e = by_discount[D(r, 5)];
      ++e.first;
      e.second += D(r, 3);
      ++by_price[D(r, 4)];
      prices.push_back(D(r, 4));
    }
    slots.push_back({"filter",
                     "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity > 40",
                     n, {{std::to_string(c), Sig6(s)}}, true});
    Rows few, many, top;
    for (const auto& [k, e] : by_discount) {
      few.push_back({Sig6(k), std::to_string(e.first), Sig6(e.second)});
    }
    slots.push_back({"groupby_few",
                     "SELECT l_discount, count(*), sum(l_quantity) FROM lineitem "
                     "GROUP BY l_discount",
                     n, few, false});
    for (const auto& [k, e] : by_price) many.push_back({Sig6(k), std::to_string(e)});
    slots.push_back({"groupby_many",
                     "SELECT l_extendedprice, count(*) FROM lineitem GROUP BY l_extendedprice",
                     n, many, false});
    std::sort(prices.rbegin(), prices.rend());
    for (size_t i = 0; i < std::min<size_t>(10, prices.size()); ++i) top.push_back({Sig6(prices[i])});
    slots.push_back({"orderby_limit",
                     "SELECT l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10",
                     n, top, true});
    std::unordered_map<int64_t, double> acct;
    for (const auto& r : data_.customer->rows()) acct[I(r, 0)] = D(r, 1);
    size_t jc = 0;
    double js = 0;
    for (const auto& r : data_.orders->rows()) {
      auto it = acct.find(I(r, 1));
      if (it != acct.end() && it->second > 0) {
        ++jc;
        js += D(r, 2);
      }
    }
    slots.push_back({"join",
                     "SELECT count(*), sum(o_totalprice) FROM orders, customer "
                     "WHERE o_custkey = c_custkey AND c_acctbal > 0",
                     data_.orders->NumRows() + data_.customer->NumRows(),
                     {{std::to_string(jc), Sig6(js)}}, true});
    return slots;
  }

  /// A statement on the paged tables whose result must equal the in-memory
  /// copy's and pass `extra`.
  void Add(const std::string& name, Kind kind, const std::string& sql,
           std::function<Check(const Rows&)> extra) {
    selects_.push_back(sql);
    stmts_.push_back(StableStmt(
        name, kind,
        [this, sql]() -> Outcome {
          auto r = paged_->Query(sql);
          if (!r.ok()) return r.status();
          return ToRows(r.value());
        },
        [this, sql, extra](const Rows& rows) -> Check {
          auto m = mem_.Query(sql);
          if (!m.ok()) return Wrong("in-memory copy failed: " + m.status().ToString());
          if (ToRows(m.value()) != rows) return Wrong("differs from the in-memory copy");
          return extra ? extra(rows) : Ok();
        }));
  }

  void AddInsert(const std::string& name) {
    const size_t batch = 1000;
    Stmt stmt;
    stmt.name = name;
    stmt.kind = Kind::kInsert;
    stmt.make = [this, batch](uint64_t) {
      const uint64_t first = next_key_;
      next_key_ += batch;
      std::string sql = "INSERT INTO applog VALUES ";
      for (uint64_t k = first; k < first + batch; ++k) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s(%llu, %.17g)", k > first ? ", " : "",
                      static_cast<unsigned long long>(k),
                      static_cast<double>(Mix(config_.seed ^ k) >> 11) * 0x1.0p-53);
        sql += buf;
      }
      Op op;
      op.inserted_rows = batch;
      op.run = [this, sql]() -> Outcome {
        auto r = paged_->Query(sql);
        if (!r.ok()) return r.status();
        return ToRows(r.value());
      };
      op.check = [this, first, batch](const Outcome& out, double) -> Check {
        if (!out.ok()) return Failed("applog insert: " + out.status().ToString());
        acked_ += batch;
        for (uint64_t k = first; k < first + batch; ++k) acked_key_sum_ += k;
        return Ok();
      };
      return op;
    };
    stmts_.push_back(std::move(stmt));
  }

  void BuildStatements() {
    using sgb::core::OverlapClause;
    using sgb::geom::Metric;
    namespace wl = sgb::workload;
    const FamilyPoints* f = &families_;
    Add("gb1", Kind::kRelational, wl::Gb1(), nullptr);
    Add("gb2", Kind::kRelational, wl::Gb2(), nullptr);
    Add("gb3", Kind::kRelational, wl::Gb3(), nullptr);
    AddInsert("applog_insert_1");
    AddInsert("applog_insert_2");
    // SGB1/SGB2 and SGB5/SGB6 report their members (array_agg of the key);
    // SGB3/SGB4 report count(*) per group.
    Add("sgb1", Kind::kSgbAll, wl::Sgb1(kEps, Metric::kL2, OverlapClause::kJoinAny),
        [f](const Rows& rows) {
          return CheckFamily(rows, f->buying, 4, false, Dist::kL2, kEps, false);
        });
    Add("sgb2", Kind::kSgbAny, wl::Sgb2(kEps, Metric::kL2), [f](const Rows& rows) {
      return CheckFamily(rows, f->buying, 4, true, Dist::kL2, kEps, false);
    });
    // Every SGB statement here runs under L2: under L∞, SGB-Any at dop 1
    // and SGB-All in the bounds and indexed tiers group points whose
    // coordinates differ by a hair over ε, which these decimal-grid inputs
    // hold on some seeds only (README, "Faults found").
    //
    // SGB3 reports only count(*) per group. The same statement with
    // array_agg(partkey) in place of the sums, run on the in-memory copy,
    // must form ε-cliques of parts, and SGB3's group sizes must be that
    // statement's.
    Add("sgb3", Kind::kSgbAll, wl::Sgb3(kEps, Metric::kL2, OverlapClause::kEliminate),
        [this, f](const Rows& rows) {
          std::string sql = wl::Sgb3(kEps, Metric::kL2, OverlapClause::kEliminate);
          const std::string sums = "sum(tprof), sum(stime)";
          sql.replace(sql.find(sums), sums.size(), "array_agg(partkey)");
          auto m = mem_.Query(sql);
          if (!m.ok()) return Wrong("members query failed: " + m.status().ToString());
          const Rows members = ToRows(m.value());
          const Check c = CheckFamily(members, f->parts, 1, false, Dist::kL2, kEps, true);
          if (c.verdict != Verdict::kOk) return c;
          std::vector<std::string> got, want;
          for (const auto& row : rows) got.push_back(row[0]);
          for (const auto& row : members) {
            want.push_back(std::to_string(ParseIdList(row[1]).size()));
          }
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          return got == want ? Ok() : Wrong("group sizes differ from the groups' members");
        });
    Add("sgb4", Kind::kSgbAny, wl::Sgb4(kEps, Metric::kL2),
        [f](const Rows& rows) { return CheckComponentSizes(rows, f->parts, Dist::kL2, kEps); });
    Add("sgb5", Kind::kSgbAll,
        wl::Sgb5(kEps, Metric::kL2, OverlapClause::kFormNewGroup), [f](const Rows& rows) {
          return CheckFamily(rows, f->supplier, 0, false, Dist::kL2, kEps, false);
        });
    Add("sgb6", Kind::kSgbAny, wl::Sgb6(kEps, Metric::kL2), [f](const Rows& rows) {
      return CheckFamily(rows, f->supplier, 0, true, Dist::kL2, kEps, false);
    });
    AddInsert("applog_insert_3");
    AddInsert("applog_insert_4");
    for (const RelSlot& slot : RelSlots()) {
      Add(slot.slot, Kind::kRelational, slot.sql, [slot](const Rows& rows) {
        const std::string e = CompareRows(slot.expected, rows, slot.ordered);
        return e.empty() ? Ok() : Wrong(slot.slot + ": " + e);
      });
    }
    AddInsert("applog_insert_5");
    AddInsert("applog_insert_6");
    AddInsert("applog_insert_7");
    Stmt count;
    count.name = "applog_count";
    count.kind = Kind::kRelational;
    count.make = [this](uint64_t) {
      Op op;
      op.run = [this]() -> Outcome {
        auto r = paged_->Query("SELECT count(*) FROM applog");
        if (!r.ok()) return r.status();
        return ToRows(r.value());
      };
      op.check = [this](const Outcome& out, double) -> Check {
        if (!out.ok()) return Failed("applog_count: " + out.status().ToString());
        if (out.value() != Rows{{std::to_string(acked_)}}) {
          return Wrong("applog_count: count differs from the rows acknowledged");
        }
        return Ok();
      };
      return op;
    };
    stmts_.push_back(std::move(count));
  }

  Config config_;
  sgb::workload::TpchData data_;
  Database mem_;
  std::unique_ptr<Database> paged_;
  std::string dir_;
  FamilyPoints families_;
  std::vector<Stmt> stmts_;
  std::vector<std::string> selects_;
  uint64_t acked_ = 0;  // rows acknowledged by INSERT into applog
  uint64_t acked_key_sum_ = 0;
  uint64_t next_key_ = 0;
  uint64_t pass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTpchPaged(const Config& config) {
  return std::make_unique<TpchPaged>(config);
}

}  // namespace perfbench
