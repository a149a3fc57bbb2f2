// The per-layer ledger of the traced run. Every call into a module's public
// functions is wrapped in a span; the metrics are read back from the spans.
// Inputs are the workload's own points, tables and statements; layers the
// workload's statement list does not touch (paged storage for checkin_sgb,
// the server for the in-process workloads) are driven with a copy of the
// workload's tables.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/thread_pool.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_nd.h"
#include "geom/kernels.h"
#include "index/grid_partition.h"
#include "index/rtree.h"
#include "index/union_find.h"
#include "server/client.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

namespace {

using sgb::engine::Database;
using sgb::geom::Point;

/// Runs fn inside a span and returns the span's duration in ms.
template <typename Fn>
double Timed(const std::string& name, Fn&& fn) {
  {
    ScopedSpan span(name);
    fn();
  }
  return Tracer::Get().DurationsMs(name).back();
}

double SpanMedian(const std::string& name) {
  return Median(Tracer::Get().DurationsMs(name));
}

int64_t BufferPoolCounter(const Database& db, const std::string& column) {
  auto r = db.Query("SELECT " + column + " FROM system.buffer_pool");
  if (!r.ok() || r.value().NumRows() != 1) return 0;
  return r.value().rows()[0][0].AsInt();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// The 4096 points nearest the busiest of 64 sampled points: the densest
/// hotspot the workload has.
std::vector<Point> HotspotBlock(const std::vector<Point>& pts) {
  if (pts.empty()) return {};
  Point center = pts[0];
  size_t best = 0;
  for (size_t s = 0; s < 64; ++s) {
    const Point& c = pts[(s * 7919) % pts.size()];
    size_t near = 0;
    for (const Point& p : pts) {
      if (std::fabs(p.x - c.x) < 0.5 && std::fabs(p.y - c.y) < 0.5) ++near;
    }
    if (near > best) {
      best = near;
      center = c;
    }
  }
  std::vector<Point> sorted = pts;
  const size_t k = std::min<size_t>(4096, sorted.size());
  auto dist = [&](const Point& p) {
    return std::max(std::fabs(p.x - center.x), std::fabs(p.y - center.y));
  };
  std::partial_sort(sorted.begin(), sorted.begin() + static_cast<long>(k), sorted.end(),
                    [&](const Point& a, const Point& b) { return dist(a) < dist(b); });
  sorted.resize(k);
  return sorted;
}

void KernelProbe(const std::vector<Point>& block, Dist dist, double eps,
                 Report* report) {
  std::vector<double> xs, ys;
  for (const Point& p : block) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const size_t chunk = sgb::geom::kPointBlockCapacity;
  std::vector<uint64_t> mask(sgb::geom::KernelMaskWords(chunk));
  const std::string name = dist == Dist::kL2 ? "geom.SimilarBlockL2" : "geom.SimilarBlockLInf";
  uint64_t pairs = 0, matches = 0;
  double ms = 0;
  while (ms < 40) {
    ms += Timed(name, [&] {
      for (const Point& q : block) {
        for (size_t off = 0; off < xs.size(); off += chunk) {
          const size_t n = std::min(chunk, xs.size() - off);
          matches += dist == Dist::kL2
                         ? sgb::geom::SimilarBlockL2(q.x, q.y, xs.data() + off,
                                                     ys.data() + off, n, eps * eps,
                                                     mask.data())
                         : sgb::geom::SimilarBlockLInf(q.x, q.y, xs.data() + off,
                                                       ys.data() + off, n, eps,
                                                       mask.data());
          pairs += n;
        }
      }
    });
  }
  if (matches == 0) std::fprintf(stderr, "kernel probe matched nothing\n");
  report->Add(dist == Dist::kL2 ? "geom.kernel_l2_pairs_per_s" : "geom.kernel_linf_pairs_per_s",
              static_cast<double>(pairs) / (ms / 1e3), "pairs/s");
}

void IndexProbe(const std::vector<Point>& pts, double eps, int nproc,
                Report* report) {
  sgb::index::RTree tree;
  Timed("index.RTree.Insert", [&] {
    for (size_t i = 0; i < pts.size(); ++i) tree.Insert(pts[i], i);
  });
  report->Add("index.rtree_build_ms", SpanMedian("index.RTree.Insert"), "ms");
  const size_t probes = std::min<size_t>(2000, pts.size());
  size_t hits = 0;
  const double search_ms = Timed("index.RTree.Search", [&] {
    for (size_t i = 0; i < probes; ++i) {
      const Point& p = pts[(i * 104729) % pts.size()];
      tree.Search(sgb::geom::Rect::Around(p, eps),
                  [&hits](const sgb::geom::Rect&, uint64_t) { ++hits; });
    }
  });
  report->Add("index.rtree_window_us", search_ms * 1e3 / static_cast<double>(probes), "us");

  sgb::ThreadPool pool(static_cast<size_t>(nproc));
  for (int dop : {1, nproc}) {
    const std::string suffix = dop == 1 ? "dop1" : "dopN";
    for (int rep = 0; rep < 3; ++rep) {
      sgb::index::UnionFind forest(pts.size());
      std::vector<sgb::index::GridPartitionStats> stats;
      Timed("index.ParallelSimilarityUnion." + suffix, [&] {
        sgb::index::ParallelSimilarityUnion(pts, sgb::geom::Metric::kL2, eps,
                                            static_cast<size_t>(dop), pool, &forest,
                                            &stats);
      });
    }
    report->Add("index.grid_union_ms." + suffix,
                SpanMedian("index.ParallelSimilarityUnion." + suffix), "ms");
  }
}

void CoreProbe(const std::vector<Point>& pts, const std::vector<Pt<3>>& pts3,
               double eps, double eps3, int nproc, Report* report) {
  uint64_t dc_all = 0, dc_any = 0;
  for (int dop : {1, nproc}) {
    const std::string suffix = dop == 1 ? "dop1" : "dopN";
    sgb::core::SgbAllOptions all;
    all.epsilon = eps;
    all.degree_of_parallelism = dop;
    sgb::core::SgbAllStats all_stats;
    Timed("core.SgbAll.indexed." + suffix,
          [&] { (void)sgb::core::SgbAll(pts, all, &all_stats); });
    report->Add("core.sgb_all_ms.indexed." + suffix,
                SpanMedian("core.SgbAll.indexed." + suffix), "ms");
    sgb::core::SgbAnyOptions any;
    any.epsilon = eps;
    any.degree_of_parallelism = dop;
    sgb::core::SgbAnyStats any_stats;
    Timed("core.SgbAny.indexed." + suffix,
          [&] { (void)sgb::core::SgbAny(pts, any, &any_stats); });
    report->Add("core.sgb_any_ms.indexed." + suffix,
                SpanMedian("core.SgbAny.indexed." + suffix), "ms");
    dc_all += all_stats.distance_computations;
    dc_any += any_stats.distance_computations;
  }
  std::vector<sgb::geom::PointN<3>> p3;
  for (const Pt<3>& p : pts3) p3.push_back(sgb::geom::PointN<3>{p});
  sgb::core::SgbAllOptions all3;
  all3.epsilon = eps3;
  sgb::core::SgbAllStats all3_stats;
  Timed("core.SgbAllNd3", [&] { (void)sgb::core::SgbAllNd<3>(p3, all3, &all3_stats); });
  report->Add("core.sgb_all_ms.3d", SpanMedian("core.SgbAllNd3"), "ms");
  sgb::core::SgbAnyOptions any3;
  any3.epsilon = eps3;
  sgb::core::SgbAnyStats any3_stats;
  Timed("core.SgbAnyNd3", [&] { (void)sgb::core::SgbAnyNd<3>(p3, any3, &any3_stats); });
  report->Add("core.sgb_any_ms.3d", SpanMedian("core.SgbAnyNd3"), "ms");
  report->Add("core.distance_computations.all",
              static_cast<double>(dc_all + all3_stats.distance_computations), "count");
  report->Add("core.distance_computations.any",
              static_cast<double>(dc_any + any3_stats.distance_computations), "count");
}

double QueryMs(const Database& db, const std::string& span, const std::string& sql) {
  return Timed(span, [&] { (void)db.Query(sql); });
}

/// SQL-level probes on a ledger-local table lp(id, x, y) holding the
/// workload's 2-D points: engine overhead over the core, the planner's
/// pair estimate and choice, and the governed statements.
void SqlProbe(const LedgerInput& in, const Config& config, Report* report) {
  using sgb::engine::Column;
  using sgb::engine::DataType;
  using sgb::engine::Value;
  auto lp = std::make_shared<sgb::engine::Table>(sgb::engine::Schema(
      {Column{"id", DataType::kInt64, ""}, Column{"x", DataType::kDouble, ""},
       Column{"y", DataType::kDouble, ""}}));
  std::vector<Point> pts;
  for (size_t i = 0; i < in.pts2.size(); ++i) {
    (void)lp->Append({Value::Int(static_cast<int64_t>(i)), Value::Double(in.pts2[i][0]),
                      Value::Double(in.pts2[i][1])});
    pts.push_back(Point{in.pts2[i][0], in.pts2[i][1]});
  }
  Database db;
  db.Register("lp", lp);
  db.Register("gov3d", MakeGovTable(40000));
  QueryMs(db, "stats.ANALYZE", "ANALYZE");
  report->Add("stats.analyze_ms", SpanMedian("stats.ANALYZE"), "ms");

  // Engine overhead: the SQL statement at a forced tier and dop minus the
  // core call on the same points.
  const std::string all_sql = "SELECT count(*) FROM lp GROUP BY x, y " +
                              SgbClause(false, Dist::kL2, in.eps_dense, "JOIN-ANY");
  const std::string any_sql = "SELECT count(*) FROM lp GROUP BY x, y " +
                              SgbClause(true, Dist::kL2, in.eps_dense, "");
  (void)db.Query("SET sgb_tier = indexed");
  for (int rep = 0; rep < 2; ++rep) {
    QueryMs(db, "engine.sgb_all.sql_dop1", all_sql + " PARALLEL 1");
    sgb::core::SgbAllOptions o;
    o.epsilon = in.eps_dense;
    Timed("engine.sgb_all.core_dop1", [&] { (void)sgb::core::SgbAll(pts, o); });
  }
  report->Add("engine.sgb_overhead_ms",
              SpanMedian("engine.sgb_all.sql_dop1") - SpanMedian("engine.sgb_all.core_dop1"),
              "ms");

  // Auto plan against the best forced (tier, dop), for SGB-All and SGB-Any
  // apart, so that neither ratio hides the other.
  auto auto_vs_forced = [&](const Database& on, const std::string& sql, bool any) {
    double best = 1e300;
    for (const char* tier : {"indexed", "bounds"}) {
      if (any && std::string(tier) == "bounds") continue;  // same as indexed for ANY
      (void)on.Query(std::string("SET sgb_tier = ") + tier);
      for (int dop : {1, config.nproc}) {
        best = std::min(best, QueryMs(on, std::string("sql.forced.") + tier,
                                      sql + " PARALLEL " + std::to_string(dop)));
      }
    }
    (void)on.Query("SET sgb_tier = auto");
    return QueryMs(on, "sql.auto", sql) / best;
  };
  report->Add("sql.auto_vs_best_forced.all",
              in.auto_all_sql.empty() ? auto_vs_forced(db, all_sql, false)
                                      : auto_vs_forced(*in.mem, in.auto_all_sql, false),
              "ratio");
  report->Add("sql.auto_vs_best_forced.any", auto_vs_forced(db, any_sql, true), "ratio");

  // The planner's ε-pair estimate against the exact count.
  double log_err = 0;
  int statements = 0;
  for (Dist dist : {Dist::kL2, Dist::kLInf}) {
    for (double eps : {in.eps_sparse, in.eps_dense}) {
      auto plan = db.Explain("SELECT count(*) FROM lp GROUP BY x, y " +
                             SgbClause(true, dist, eps, ""));
      if (!plan.ok()) continue;
      const size_t at = plan.value().find("est_pairs=");
      if (at == std::string::npos) continue;
      const double est = std::atof(plan.value().c_str() + at + 10);
      const uint64_t exact = CountPairs<2>(in.pts2, dist, eps);
      log_err += std::fabs(std::log10(std::max(est, 1.0) /
                                      std::max(static_cast<double>(exact), 1.0)));
      ++statements;
    }
  }
  report->Add("sql.est_pairs_log_error", statements ? log_err / statements : -1, "log10");

  // Governed statements on the fixed table: return time past a 50 ms
  // deadline, grouping on two and on three of its columns.
  (void)db.Query("SET timeout = 50");
  for (const auto& [name, sql] :
       {std::pair<std::string, std::string>{
            "2d", "SELECT count(*) FROM gov3d GROUP BY x, y " +
                      SgbClause(false, Dist::kL2, 0.05, "JOIN-ANY")},
        {"3d", "SELECT count(*) FROM gov3d GROUP BY x, y, z " +
                   SgbClause(false, Dist::kL2, 0.05, "JOIN-ANY")}}) {
    const double ms = QueryMs(db, "engine.governed." + name, sql);
    report->Add("engine.deadline_overrun_ms." + name, ms - 50.0, "ms");
  }
}

/// Relational statements on the in-memory tables and on a paged copy loaded
/// through INSERT; storage costs of that load.
void StorageProbe(const LedgerInput& in, const Config& config, Report* report) {
  const std::string dir = config.dir + "/ledger_paged";
  std::filesystem::remove_all(dir);
  size_t rows = 0;
  double paged_insert_ms = 0, mem_insert_ms = 0;
  int64_t wal_before = 0, wal_after = 0;
  double checkpoint_ms = 0;
  uint64_t disk = 0;
  double mem_rel_ns = 0, paged_rel_ns = 0;
  int64_t hits = 0, misses = 0;
  {
    auto opened = Database::Open(dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "ledger: %s\n", opened.status().ToString().c_str());
      report->correct = false;
      return;
    }
    Database paged = std::move(opened.value());
    Database append;  // in-memory append tables, for the INSERT comparison
    wal_before = BufferPoolCounter(paged, "wal_bytes");
    for (const auto& [create, table] : in.tables) {
      (void)paged.Query(create);
      (void)append.Query(create);
      const std::string name = create.substr(13, create.find(' ', 13) - 13);
      for (size_t r = 0; r < table->NumRows(); r += 500) {
        const std::string sql =
            InsertSql(name, *table, r, std::min(table->NumRows(), r + 500));
        paged_insert_ms += QueryMs(paged, "storage.INSERT", sql);
        mem_insert_ms += QueryMs(append, "engine.append.INSERT", sql);
      }
      rows += table->NumRows();
    }
    wal_after = BufferPoolCounter(paged, "wal_bytes");
    checkpoint_ms = QueryMs(paged, "storage.CHECKPOINT", "CHECKPOINT");
    disk = DirBytes(dir);
    // Pool holds about a quarter of the data.
    (void)paged.Query("SET buffer_pool_bytes = " + std::to_string(std::max<uint64_t>(disk / 4, 1 << 16)));
    const int64_t h0 = BufferPoolCounter(paged, "hits");
    const int64_t m0 = BufferPoolCounter(paged, "misses");
    size_t rel_rows = 0;
    for (const RelSlot& slot : in.rel) {
      std::vector<double> mem_ms, paged_ms;
      Rows mem_rows, paged_rows;
      for (int rep = 0; rep < 3; ++rep) {
        mem_ms.push_back(Timed("engine.rel." + slot.slot, [&] {
          auto r = in.mem->Query(slot.sql);
          if (r.ok()) mem_rows = ToRows(r.value());
        }));
        paged_ms.push_back(Timed("storage.rel." + slot.slot, [&] {
          auto r = paged.Query(slot.sql);
          if (r.ok()) paged_rows = ToRows(r.value());
        }));
      }
      if (mem_rows != paged_rows || CompareRows(slot.expected, mem_rows, slot.ordered) != "") {
        std::fprintf(stderr, "WRONG: ledger: %s differs between paged and in-memory tables\n",
                     slot.slot.c_str());
        report->correct = false;
      }
      report->Add("engine.ns_per_row." + slot.slot,
                  Median(mem_ms) * 1e6 / static_cast<double>(slot.rows_in), "ns/row");
      mem_rel_ns += Median(mem_ms) * 1e6;
      paged_rel_ns += Median(paged_ms) * 1e6;
      rel_rows += slot.rows_in;
    }
    hits = BufferPoolCounter(paged, "hits") - h0;
    misses = BufferPoolCounter(paged, "misses") - m0;
    report->Add("storage.scan_overhead_ns_per_row",
                (paged_rel_ns - mem_rel_ns) / static_cast<double>(rel_rows), "ns/row");
  }
  std::filesystem::remove_all(dir);
  report->Add("storage.pool_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
              "ratio");
  report->Add("storage.insert_us_per_row", paged_insert_ms * 1e3 / static_cast<double>(rows),
              "us/row");
  report->Add("storage.append_insert_us_per_row",
              mem_insert_ms * 1e3 / static_cast<double>(rows), "us/row");
  report->Add("storage.wal_bytes_per_row",
              static_cast<double>(wal_after - wal_before) / static_cast<double>(rows), "B/row");
  report->Add("storage.checkpoint_ms", checkpoint_ms, "ms");
  report->Add("storage.disk_bytes_per_row",
              static_cast<double>(disk) / static_cast<double>(rows), "B/row");
}

void ServerProbe(const LedgerInput& in, Report* report) {
  sgb::server::ServerOptions options;
  options.tcp = true;
  sgb::server::Server server(in.mem, options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "ledger: server did not start\n");
    report->correct = false;
    return;
  }
  auto client = sgb::server::Client::ConnectLoopback(server.tcp_port());
  if (!client.ok()) {
    std::fprintf(stderr, "ledger: cannot connect\n");
    report->correct = false;
    return;
  }
  for (int i = 0; i < 300; ++i) {
    Timed("server.Client.Ping", [&] { (void)client.value().Ping(); });
  }
  report->Add("server.ping_us", SpanMedian("server.Client.Ping") * 1e3, "us");
  for (int i = 0; i < 200; ++i) {
    Timed("server.Client.Query", [&] { (void)client.value().Query(in.short_sql); });
    Timed("engine.Database.Query", [&] { (void)in.mem->Query(in.short_sql); });
  }
  report->Add("server.overhead_us",
              (SpanMedian("server.Client.Query") - SpanMedian("engine.Database.Query")) * 1e3,
              "us");
  (void)client.value().Quit();
  server.Stop();
}

}  // namespace

void RunLedger(const LedgerInput& in, const Config& config, Report* report) {
  std::vector<Point> pts;
  for (const Pt<2>& p : in.pts2) pts.push_back(Point{p[0], p[1]});
  const std::vector<Point> block = HotspotBlock(pts);
  KernelProbe(block, Dist::kL2, in.eps_dense, report);
  KernelProbe(block, Dist::kLInf, in.eps_dense, report);
  IndexProbe(pts, in.eps_dense, config.nproc, report);
  CoreProbe(pts, in.pts3, in.eps_dense, in.eps3, config.nproc, report);
  SqlProbe(in, config, report);
  for (const std::string& sql : in.selects) {
    for (int rep = 0; rep < 3; ++rep) {
      Timed("sql.Database.Prepare", [&] { (void)in.mem->Prepare(sql); });
    }
  }
  report->Add("sql.prepare_us", SpanMedian("sql.Database.Prepare") * 1e3, "us");
  StorageProbe(in, config, report);
  ServerProbe(in, report);
}

}  // namespace perfbench
