#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>

namespace perfbench {

Rows ToRows(const sgb::engine::Table& table) {
  Rows rows;
  rows.reserve(table.NumRows());
  for (const sgb::engine::Row& row : table.rows()) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const sgb::engine::Value& v : row) cells.push_back(v.ToString());
    rows.push_back(std::move(cells));
  }
  return rows;
}

uint64_t Fingerprint(const Rows& rows) {
  uint64_t h = 1469598103934665603ULL;
  auto feed = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const auto& row : rows) {
    for (const std::string& cell : row) {
      for (char c : cell) feed(static_cast<unsigned char>(c));
      feed(0x1f);
    }
    feed(0x1e);
  }
  return h;
}

std::string Sig6(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::vector<int64_t> ParseIdList(const std::string& cell) {
  std::vector<int64_t> ids;
  const char* p = cell.c_str();
  while (*p != '\0') {
    if ((*p >= '0' && *p <= '9') || *p == '-') {
      char* end = nullptr;
      ids.push_back(std::strtoll(p, &end, 10));
      p = end;
    } else {
      ++p;
    }
  }
  return ids;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

// ---- Tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_stack;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::Begin(const std::string& name) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = now;
  span.parent = t_stack.empty() ? -1 : t_stack.back();
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  t_stack.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": " << run_id_ << ", \"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"thread\": " << (s.thread % 100000)
        << ", \"run\": " << run_id_ << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- Statements ----------------------------------------------------------------

Stmt StableStmt(std::string name, Kind kind, std::function<Outcome()> run,
                std::function<Check(const Rows&)> oracle) {
  // Shared by every execution of this statement (one client each).
  auto verified = std::make_shared<std::pair<bool, uint64_t>>(false, 0);
  Stmt stmt;
  stmt.name = name;
  stmt.kind = kind;
  stmt.make = [run, oracle, verified, name](uint64_t) {
    Op op;
    op.run = run;
    op.check = [oracle, verified, name](const Outcome& out, double) -> Check {
      if (!out.ok()) return Failed(name + ": " + out.status().ToString());
      const uint64_t fp = Fingerprint(out.value());
      if (!verified->first) {
        Check c = oracle(out.value());
        if (c.verdict != Verdict::kOk) {
          c.message = name + ": " + c.message;
          return c;
        }
        *verified = {true, fp};
        return Ok();
      }
      if (fp != verified->second) {
        return Wrong(name + ": result differs from its checked first run");
      }
      return Ok();
    };
    return op;
  };
  return stmt;
}

void RunPass(const std::vector<Stmt>& stmts, uint64_t pass, Recorder* rec) {
  for (const Stmt& stmt : stmts) {
    Op op = stmt.make(pass);
    const Clock::time_point t0 = Clock::now();
    Outcome out = [&] {
      ScopedSpan span("stmt." + stmt.name);
      return op.run();
    }();
    const double ms = MsSince(t0);
    const Check check = op.check(out, ms);
    ++rec->attempted;
    rec->by_stmt_ms[stmt.name].push_back(ms);
    rec->kind_of[stmt.name] = stmt.kind;
    if (stmt.kind == Kind::kInsert) rec->rows_of[stmt.name] = op.inserted_rows;
    if (check.verdict == Verdict::kFailed) {
      ++rec->failed;
      if (rec->failed <= 4) std::fprintf(stderr, "failed: %s\n", check.message.c_str());
    } else if (check.verdict == Verdict::kWrong) {
      rec->wrong.push_back(check.message);
      if (rec->wrong.size() <= 4) std::fprintf(stderr, "WRONG: %s\n", check.message.c_str());
    }
  }
}

// ---- Report ----------------------------------------------------------------------

void AddLoopMetrics(const std::vector<Recorder>& recs, double wall_s, Report* report) {
  // Time per pass of a kind of statement: the sum over its statements of
  // each one's median latency, which a slow pass does not move.
  std::map<std::string, std::vector<double>> by_stmt;
  std::map<std::string, Kind> kind_of;
  std::map<std::string, size_t> rows_of;
  std::vector<double> lat;
  uint64_t statements = 0;
  for (const Recorder& r : recs) {
    for (const auto& [name, ms] : r.by_stmt_ms) {
      by_stmt[name].insert(by_stmt[name].end(), ms.begin(), ms.end());
      lat.insert(lat.end(), ms.begin(), ms.end());
      kind_of[name] = r.kind_of.at(name);
    }
    rows_of.insert(r.rows_of.begin(), r.rows_of.end());
    statements += r.attempted;
    report->attempted += r.attempted;
    report->failed += r.failed;
    if (!r.wrong.empty()) report->correct = false;
  }
  double all_s = 0, any_s = 0, rel_s = 0, insert_s = 0;
  size_t insert_rows = 0;
  for (const auto& [name, ms] : by_stmt) {
    const double s = Median(ms) / 1e3;
    switch (kind_of[name]) {
      case Kind::kSgbAll: all_s += s; break;
      case Kind::kSgbAny: any_s += s; break;
      case Kind::kRelational: rel_s += s; break;
      case Kind::kInsert:
        insert_s += s;
        insert_rows += rows_of[name];
        break;
    }
  }
  report->Add("sgb_all_s", all_s, "s");
  report->Add("sgb_any_s", any_s, "s");
  report->Add("relational_s", rel_s, "s");
  report->Add("insert_rows_per_s", static_cast<double>(insert_rows) / insert_s, "rows/s");
  report->Add("stmt_per_s", static_cast<double>(statements) / wall_s, "stmt/s");
  report->Add("stmt_ms_p50", Median(lat), "ms");
  report->Add("stmt_ms_p90", Quantile(lat, 0.9), "ms");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PrintReport(const std::string& workload, uint64_t seed,
                 const Report& report) {
  std::printf("workload %s seed %llu: attempted %llu failed %llu correct %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct ? "true" : "false");
  for (const auto& [name, vu] : report.metrics) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    char value[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
