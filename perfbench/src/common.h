// Shared pieces of the SGB benchmark: timing, spans, statement execution
// and accounting, the final report. Everything here lives on the benchmark
// side of the library boundary; the program under test only sees SQL
// statements and the inputs the workloads generate.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// SplitMix64: derives every generated input from the run's --seed.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class SeqRng {
 public:
  explicit SeqRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix(state_++); }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  int64_t Int(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// A statement result as text, one string per cell — the form the wire
/// protocol delivers, so in-process and wire results are checked alike.
using Rows = std::vector<std::vector<std::string>>;
Rows ToRows(const sgb::engine::Table& table);
uint64_t Fingerprint(const Rows& rows);
/// A double as the engine prints it ("%.6g").
std::string Sig6(double v);
/// Parses an array_agg cell "{3,17,42}".
std::vector<int64_t> ParseIdList(const std::string& cell);
double Median(std::vector<double> v);
/// The q-quantile (nearest rank).
double Quantile(std::vector<double> v, double q);

// ---- Spans -----------------------------------------------------------------

/// In-memory span recorder for the traced run: one span per call into a
/// layer, with its parent span and the run id. Written out when the run
/// ends; the per-layer metrics are computed from the recorded spans.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(uint64_t run_id) { enabled_ = true; run_id_ = run_id; }
  bool enabled() const { return enabled_; }
  int Begin(const std::string& name);
  void End(int id);
  /// Durations (ms) of every finished span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
    uint64_t thread = 0;
  };
  bool enabled_ = false;
  uint64_t run_id_ = 0;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span around a scope when tracing is on; free otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

// ---- Statements --------------------------------------------------------------

enum class Kind { kSgbAll, kSgbAny, kRelational, kInsert };

/// kFailed: the operation failed (counted in `failed`); kWrong: it returned
/// a result that the checks reject (the run is then not `correct`).
enum class Verdict { kOk, kFailed, kWrong };
struct Check {
  Verdict verdict = Verdict::kOk;
  std::string message;
};
inline Check Ok() { return {}; }
inline Check Wrong(std::string m) { return {Verdict::kWrong, std::move(m)}; }
inline Check Failed(std::string m) { return {Verdict::kFailed, std::move(m)}; }

using Outcome = sgb::Result<Rows>;

/// One execution of a statement: how to run it and how to judge the result.
struct Op {
  std::function<Outcome()> run;
  std::function<Check(const Outcome&, double ms)> check;
  size_t inserted_rows = 0;
};

/// A statement of a workload's pass. `make(i)` builds its i-th execution, so
/// statements whose text or expected result changes from pass to pass
/// (INSERT batches, counts over a growing table) fit the same loop.
struct Stmt {
  std::string name;
  Kind kind = Kind::kRelational;
  std::function<Op(uint64_t pass)> make;
};

/// A statement whose result never changes: the first result is judged by
/// `oracle`; later results must have the same fingerprint.
Stmt StableStmt(std::string name, Kind kind, std::function<Outcome()> run,
                std::function<Check(const Rows&)> oracle);

/// Per-client accounting of a closed loop.
struct Recorder {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> wrong;
  std::map<std::string, std::vector<double>> by_stmt_ms;
  std::map<std::string, Kind> kind_of;
  std::map<std::string, size_t> rows_of;  // rows each INSERT statement adds
};

/// Runs one pass of `stmts` (execution index `pass`), timing each statement
/// and judging its result into `rec`.
void RunPass(const std::vector<Stmt>& stmts, uint64_t pass, Recorder* rec);

// ---- Report -----------------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

/// End-to-end metrics shared by all workloads, from the recorders of the
/// timed loop (one per client) and its wall time.
void AddLoopMetrics(const std::vector<Recorder>& recs, double wall_s, Report* report);
double PeakRssMb();

/// Prints the human-readable report and, as the last line, the JSON object.
void PrintReport(const std::string& workload, uint64_t seed,
                 const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
