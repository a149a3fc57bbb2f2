// sgb_perfbench: runs one workload for a fixed time and prints its metrics.
//
//   sgb_perfbench --workload <checkin_sgb|tpch_paged|wire_sessions>
//                 --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//                 [--small]
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 runs
// half the time untraced and half traced (the ratio of the two is the
// tracing overhead), then the per-layer ledger, writes the spans to
// <dir>/spans.json and prints the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "workload.h"

namespace {

using namespace perfbench;

std::unique_ptr<Workload> Make(const std::string& name, const Config& config) {
  if (name == "checkin_sgb") return MakeCheckinSgb(config);
  if (name == "tpch_paged") return MakeTpchPaged(config);
  if (name == "wire_sessions") return MakeWireSessions(config);
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sgb_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --dir <dir> [--small]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  Config config;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") workload = next();
    else if (arg == "--seed") config.seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(next());
    else if (arg == "--trace") trace = std::atoi(next());
    else if (arg == "--dir") config.dir = next();
    else if (arg == "--small") config.small = true;
    else return Usage();
  }
  if (config.dir.empty() || seconds <= 0 || !Make(workload, config)) {
    return Usage();
  }
  config.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::filesystem::create_directories(config.dir);

  Report report;
  const std::string selftest = SelfTestOracles();
  if (!selftest.empty()) {
    std::fprintf(stderr, "oracle self-test failed: %s\n", selftest.c_str());
    report.correct = false;
  }

  // Set-up is repeated and its median reported; the last set-up is kept.
  const int setups = config.small ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < setups; ++k) {
    w.reset();
    Config c = config;
    c.dir = config.dir + "/setup" + std::to_string(k);
    std::filesystem::remove_all(c.dir);
    std::filesystem::create_directories(c.dir);
    w = Make(workload, c);
    const Clock::time_point t0 = Clock::now();
    const sgb::Status st = w->Setup();
    setup_s.push_back(MsSince(t0) / 1e3);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (k + 1 < setups) {
      w.reset();
      std::filesystem::remove_all(c.dir);
    }
  }
  w->Prepare();

  // One untimed pass warms caches and checks every first result.
  std::vector<Recorder> all = w->Loop(0, 0).recs;
  std::vector<Recorder> timed;
  double wall_s = 0;
  if (trace == 0) {
    // At least ten samples beyond the 90th latency percentile.
    LoopResult r = w->Loop(seconds, 100);
    timed = r.recs;
    wall_s = r.wall_s;
  } else {
    LoopResult plain = w->Loop(seconds / 2, 0);
    Tracer::Get().Enable(config.seed);
    LoopResult traced = w->Loop(seconds / 2, 0);
    uint64_t n_plain = 0, n_traced = 0;
    for (const Recorder& r : plain.recs) n_plain += r.attempted;
    for (const Recorder& r : traced.recs) n_traced += r.attempted;
    report.Add("bench.trace_overhead_ratio",
               (traced.wall_s / static_cast<double>(n_traced)) /
                   (plain.wall_s / static_cast<double>(n_plain)),
               "ratio");
    timed = plain.recs;
    timed.insert(timed.end(), traced.recs.begin(), traced.recs.end());
  }
  all.insert(all.end(), timed.begin(), timed.end());

  if (trace == 0) {
    Report loop;
    AddLoopMetrics(timed, wall_s, &loop);
    report.Add("setup_s", Median(setup_s), "s");
    for (const auto& m : loop.metrics) report.metrics.push_back(m);
  } else {
    RunLedger(w->Ledger(), config, &report);
  }

  for (const std::string& problem : w->Finish()) {
    std::fprintf(stderr, "WRONG: %s\n", problem.c_str());
    report.correct = false;
  }
  w.reset();
  if (trace == 0) report.Add("peak_rss_mb", PeakRssMb(), "MB");

  for (const Recorder& r : all) {
    report.attempted += r.attempted;
    report.failed += r.failed;
    if (!r.wrong.empty()) report.correct = false;
  }
  if (trace == 1) {
    const std::string path = config.dir + "/spans.json";
    if (!Tracer::Get().Write(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  PrintReport(workload, config.seed, report);
  return 0;
}
