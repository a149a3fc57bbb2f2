// wire_sessions: an in-process server on TCP loopback and a few wire
// clients in closed loops. Per-statement fixed costs dominate: the socket
// round trip, parse, the plan cache, session snapshots, admission and the
// append-table publish; concurrent clients expose lock and queue contention.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "server/client.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

namespace {

using sgb::engine::Database;
using sgb::server::Client;

constexpr double kEps = 0.05;

Outcome FromWire(sgb::Result<sgb::server::QueryResult> r) {
  if (!r.ok()) return r.status();
  return std::move(r.value().rows);
}

Check Count(const Outcome& out, const std::string& name, int64_t expected) {
  if (!out.ok()) return Failed(name + ": " + out.status().ToString());
  if (out.value() != Rows{{std::to_string(expected)}}) {
    return Wrong(name + ": count " + (out.value().empty() || out.value()[0].empty()
                                          ? std::string("?")
                                          : out.value()[0][0]) +
                 ", expected " + std::to_string(expected));
  }
  return Ok();
}

class WireSessions final : public Workload {
 public:
  explicit WireSessions(const Config& config) : config_(config) {
    clients_n_ = std::min(2, config.nproc);
    passes_.assign(static_cast<size_t>(clients_n_), 0);
  }

  ~WireSessions() override {
    clients_.clear();
    if (server_) server_->Stop();
  }

  sgb::Status Setup() override {
    tables_ = MakeCheckinTables(config_.small ? 2000 : 20000, 500, config_.seed);
    spots_ = MakeCheckinTables(config_.small ? 300 : 1500, 10, Mix(config_.seed) + 2);
    db_.Register("checkins", tables_.checkins);
    db_.Register("users", tables_.users);
    db_.Register("spots", spots_.checkins);
    auto created = db_.Query("CREATE TABLE feed (user_id INT, latitude DOUBLE, longitude DOUBLE)");
    if (!created.ok()) return created.status();
    auto analyzed = db_.Query("ANALYZE");
    if (!analyzed.ok()) return analyzed.status();

    sgb::server::ServerOptions options;
    options.tcp = true;
    server_ = std::make_unique<sgb::server::Server>(&db_, options);
    SGB_RETURN_IF_ERROR(server_->Start());
    for (int c = 0; c < clients_n_; ++c) {
      auto client = Client::ConnectLoopback(server_->tcp_port());
      if (!client.ok()) return client.status();
      clients_.push_back(std::make_unique<Client>(std::move(client.value())));
      SGB_RETURN_IF_ERROR(clients_.back()->Prepare("p_count", "SELECT count(*) FROM checkins"));
      SGB_RETURN_IF_ERROR(clients_.back()->Prepare(
          "p_range", "SELECT count(*) FROM checkins WHERE latitude >= 35 AND latitude < 40"));
    }
    return sgb::Status::OK();
  }

  void Prepare() override {
    for (const Pt<3>& p : tables_.pts) latitudes_.push_back(p[0]);
    std::sort(latitudes_.begin(), latitudes_.end());
    for (int64_t u : tables_.user) ++user_count_[u];
    for (int c = 0; c < clients_n_; ++c) stmts_.push_back(BuildStatements(c));
  }

  LoopResult Loop(double seconds, uint64_t min_statements) override {
    LoopResult result;
    result.recs.resize(static_cast<size_t>(clients_n_));
    std::barrier start(clients_n_ + 1);
    Clock::time_point t0;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients_n_; ++c) {
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        const Clock::time_point begin = Clock::now();
        uint64_t pass = passes_[static_cast<size_t>(c)];
        Recorder& rec = result.recs[static_cast<size_t>(c)];
        do {
          RunPass(stmts_[static_cast<size_t>(c)], pass++, &rec);
        } while (MsSince(begin) < seconds * 1e3 ||
                 rec.attempted * static_cast<uint64_t>(clients_n_) < min_statements);
        passes_[static_cast<size_t>(c)] = pass;
      });
    }
    t0 = Clock::now();
    start.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    result.wall_s = MsSince(t0) / 1e3;
    return result;
  }

  std::vector<std::string> Finish() override {
    auto count = db_.Query("SELECT count(*) FROM feed");
    if (!count.ok() || ToRows(count.value()) != Rows{{std::to_string(acked_.load())}}) {
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
    for (const Pt<3>& p : spots_.pts) in.pts2.push_back({p[0], p[1]});
    in.pts3 = spots_.pts;
    in.eps_sparse = kEps / 5;
    in.eps_dense = kEps;
    in.eps3 = kEps;
    in.selects = selects_;
    in.short_sql = "SELECT count(*) FROM users";
    return in;
  }

 private:
  Stmt Wire(const std::string& name, Kind kind, Client* client,
            std::function<std::string(uint64_t)> sql,
            std::function<Check(const Outcome&, uint64_t)> check) {
    if (collect_selects_) selects_.push_back(sql(0));
    Stmt stmt;
    stmt.name = name;
    stmt.kind = kind;
    stmt.make = [client, sql, check](uint64_t pass) {
      Op op;
      const std::string text = sql(pass);
      op.run = [client, text]() { return FromWire(client->Query(text)); };
      op.check = [check, pass](const Outcome& out, double) { return check(out, pass); };
      return op;
    };
    return stmt;
  }

  std::vector<Stmt> BuildStatements(int c) {
    collect_selects_ = c == 0;  // the clients' SELECTs differ only in constants
    Client* client = clients_[static_cast<size_t>(c)].get();
    std::vector<Stmt> s;
    const int64_t n = static_cast<int64_t>(tables_.pts.size());
    auto range = [this](double lo, double hi) {
      return static_cast<int64_t>(std::lower_bound(latitudes_.begin(), latitudes_.end(), hi) -
                                  std::lower_bound(latitudes_.begin(), latitudes_.end(), lo));
    };
    const int64_t prepared_range = range(35, 40);

    Stmt p_count;
    p_count.name = "exec_count";
    p_count.kind = Kind::kRelational;
    p_count.make = [client, n](uint64_t) {
      Op op;
      op.run = [client]() { return FromWire(client->Execute("p_count")); };
      op.check = [n](const Outcome& out, double) { return Count(out, "exec_count", n); };
      return op;
    };
    s.push_back(p_count);
    Stmt p_range = p_count;
    p_range.name = "exec_range";
    p_range.make = [client, prepared_range](uint64_t) {
      Op op;
      op.run = [client]() { return FromWire(client->Execute("p_range")); };
      op.check = [prepared_range](const Outcome& out, double) {
        return Count(out, "exec_range", prepared_range);
      };
      return op;
    };
    s.push_back(p_range);

    // Ad-hoc statements whose constants change every pass, so each one is
    // parsed and planned afresh.
    const int64_t users = static_cast<int64_t>(tables_.users->NumRows());
    auto user_of = [c, users](uint64_t pass) {
      return static_cast<int64_t>((pass * 7 + static_cast<uint64_t>(c) * 13) %
                                  static_cast<uint64_t>(users)) + 1;
    };
    s.push_back(Wire(
        "adhoc_user_count", Kind::kRelational, client,
        [user_of](uint64_t pass) {
          return "SELECT count(*) FROM checkins WHERE user_id = " +
                 std::to_string(user_of(pass));
        },
        [this, user_of](const Outcome& out, uint64_t pass) {
          auto it = user_count_.find(user_of(pass));
          return Count(out, "adhoc_user_count", it == user_count_.end() ? 0 : it->second);
        }));
    auto lo_of = [c](uint64_t pass) {
      return 25.0 + static_cast<double>((pass * 3 + static_cast<uint64_t>(c)) % 23);
    };
    s.push_back(Wire(
        "adhoc_range", Kind::kRelational, client,
        [lo_of](uint64_t pass) {
          const double lo = lo_of(pass);
          return "SELECT count(*) FROM checkins WHERE latitude >= " + std::to_string(lo) +
                 " AND latitude < " + std::to_string(lo + 1.5);
        },
        [range, lo_of](const Outcome& out, uint64_t pass) {
          const double lo = std::stod(std::to_string(lo_of(pass)));
          const double hi = std::stod(std::to_string(lo_of(pass) + 1.5));
          return Count(out, "adhoc_range", range(lo, hi));
        }));

    const CheckinTables* t = &tables_;
    auto stable = [this, client](const std::string& name, Kind kind, const std::string& sql,
                                 std::function<Check(const Rows&)> oracle) {
      if (collect_selects_) selects_.push_back(sql);
      return StableStmt(name, kind, [client, sql]() { return FromWire(client->Query(sql)); },
                        std::move(oracle));
    };
    s.push_back(stable("top_users", Kind::kRelational,
                       "SELECT user_id, count(*) AS n FROM checkins GROUP BY user_id "
                       "ORDER BY n DESC LIMIT 10",
                       [t](const Rows& rows) { return CheckTopUsers(*t, rows); }));
    std::vector<Pt<2>> spots;
    for (const Pt<3>& p : spots_.pts) spots.push_back({p[0], p[1]});
    s.push_back(stable("spots_any", Kind::kSgbAny,
                       "SELECT count(*), array_agg(id) FROM spots GROUP BY latitude, longitude " +
                           SgbClause(true, Dist::kL2, kEps, ""),
                       [spots](const Rows& rows) {
                         return CheckSgbRows<2>(rows, spots, true, Dist::kL2, kEps, false);
                       }));
    s.push_back(stable("spots_all", Kind::kSgbAll,
                       "SELECT count(*), array_agg(id) FROM spots GROUP BY latitude, longitude " +
                           SgbClause(false, Dist::kL2, kEps, "JOIN-ANY"),
                       [spots](const Rows& rows) {
                         return CheckSgbRows<2>(rows, spots, false, Dist::kL2, kEps, false);
                       }));
    const int clients = clients_n_;
    s.push_back(Wire(
        "system_sessions", Kind::kRelational, client,
        [](uint64_t) { return std::string("SELECT count(*) FROM system.sessions"); },
        [clients](const Outcome& out, uint64_t) -> Check {
          if (!out.ok()) return Failed("system_sessions: " + out.status().ToString());
          if (out.value().size() != 1 || std::stoll(out.value()[0][0]) < clients) {
            return Wrong("system_sessions: fewer sessions than clients");
          }
          return Ok();
        }));

    // INSERTs into the append-only feed; every client's count of it must
    // never decrease and must include its own acknowledged rows.
    const size_t batch = 20;
    auto own = std::make_shared<int64_t>(0);
    auto seen = std::make_shared<int64_t>(0);
    Stmt insert;
    insert.name = "feed_insert";
    insert.kind = Kind::kInsert;
    insert.make = [this, client, c, batch, own](uint64_t pass) {
      std::string sql = "INSERT INTO feed VALUES ";
      for (size_t r = 0; r < batch; ++r) {
        const size_t i = (pass * batch + r + static_cast<size_t>(c) * 997) % tables_.pts.size();
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s(%lld, %.17g, %.17g)", r > 0 ? ", " : "",
                      static_cast<long long>(tables_.user[i]), tables_.pts[i][0],
                      tables_.pts[i][1]);
        sql += buf;
      }
      Op op;
      op.inserted_rows = batch;
      op.run = [client, sql]() { return FromWire(client->Query(sql)); };
      op.check = [this, batch, own](const Outcome& out, double) -> Check {
        if (!out.ok()) return Failed("feed_insert: " + out.status().ToString());
        acked_ += batch;
        *own += static_cast<int64_t>(batch);
        return Ok();
      };
      return op;
    };
    s.push_back(insert);
    s.push_back(Wire(
        "feed_count", Kind::kRelational, client,
        [](uint64_t) { return std::string("SELECT count(*) FROM feed"); },
        [own, seen](const Outcome& out, uint64_t) -> Check {
          if (!out.ok()) return Failed("feed_count: " + out.status().ToString());
          if (out.value().size() != 1) return Wrong("feed_count: no count");
          const int64_t v = std::stoll(out.value()[0][0]);
          if (v < *seen) return Wrong("feed_count: count decreased");
          if (v < *own) return Wrong("feed_count: misses this client's own rows");
          *seen = v;
          return Ok();
        }));
    s.push_back(Wire(
        "system_tables", Kind::kRelational, client,
        [](uint64_t) { return std::string("SELECT count(*) FROM system.tables"); },
        [](const Outcome& out, uint64_t) -> Check {
          if (!out.ok()) return Failed("system_tables: " + out.status().ToString());
          if (out.value().size() != 1 || std::stoll(out.value()[0][0]) < 4) {
            return Wrong("system_tables: tables missing");
          }
          return Ok();
        }));
    return s;
  }

  Config config_;
  int clients_n_ = 2;
  Database db_;
  CheckinTables tables_, spots_;
  std::vector<double> latitudes_;
  std::unordered_map<int64_t, int64_t> user_count_;
  std::unique_ptr<sgb::server::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::vector<Stmt>> stmts_;
  std::vector<uint64_t> passes_;  // next pass index per client
  std::vector<std::string> selects_;
  bool collect_selects_ = false;
  std::atomic<int64_t> acked_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeWireSessions(const Config& config) {
  return std::make_unique<WireSessions>(config);
}

}  // namespace perfbench
