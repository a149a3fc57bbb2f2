// Out-of-core execution tests (docs/ROBUSTNESS.md "Spill-to-disk"): the row
// codec round-trips every value shape bit-exactly, SpillFile never leaks a
// temp file (success, fault, or abort), recursive repartitioning terminates
// on pathological keys, and — the acceptance bar — queries that fail with
// ResourceExhausted under a budget complete with `SET spill = 1` producing
// results identical to the unbudgeted run.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/spill.h"
#include "obs/metrics.h"

namespace sgb::engine {
namespace {

// ---- Row codec ----------------------------------------------------------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(SpillCodecTest, RoundTripPreservesEveryValueShape) {
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Row original{
      Value::Null(),
      Value::Int(0),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(quiet_nan),
      Value::Double(inf),
      Value::Double(-inf),
      Value::Double(1.0 / 3.0),
      Value::Str(""),
      Value::Str(std::string(3000, 'q')),
      Value::Str(std::string("nul\0byte", 8)),
  };

  std::string buffer;
  EncodeRow(original, &buffer);
  Row decoded;
  size_t offset = 0;
  ASSERT_TRUE(DecodeRow(buffer.data(), buffer.size(), &offset, &decoded).ok());
  EXPECT_EQ(offset, buffer.size());

  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(decoded[i].type(), original[i].type());
    switch (original[i].type()) {
      case DataType::kNull:
        break;
      case DataType::kInt64:
        EXPECT_EQ(decoded[i].AsInt(), original[i].AsInt());
        break;
      case DataType::kDouble:
        // Bit-exact: NaN payloads and signed zero survive the trip.
        EXPECT_EQ(Bits(decoded[i].AsDouble()), Bits(original[i].AsDouble()));
        break;
      case DataType::kString:
        EXPECT_EQ(decoded[i].AsString(), original[i].AsString());
        break;
    }
  }
}

TEST(SpillCodecTest, DecodeRejectsTruncatedBuffers) {
  std::string buffer;
  EncodeRow(Row{Value::Int(42), Value::Str("payload")}, &buffer);
  // Every proper prefix must fail cleanly, never read past the end.
  for (size_t len = 0; len < buffer.size(); ++len) {
    Row row;
    size_t offset = 0;
    EXPECT_FALSE(DecodeRow(buffer.data(), len, &offset, &row).ok()) << len;
  }
}

// ---- SpillFile lifecycle ------------------------------------------------

TEST(SpillFileTest, WriteReadAcrossBufferBoundaries) {
  const uint64_t live_before = SpillFile::LiveFileCount();
  std::string path;
  {
    auto file = SpillFile::Create("");
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    path = file.value()->path();
    EXPECT_EQ(SpillFile::LiveFileCount(), live_before + 1);

    // ~2000 rows x ~200B comfortably straddles the 64 kB I/O buffer, so
    // rows split across refills are exercised.
    Rng rng(11);
    std::vector<Row> written;
    for (int i = 0; i < 2000; ++i) {
      written.push_back(Row{
          Value::Int(i),
          Value::Double(rng.NextDouble()),
          Value::Str(std::string(150 + static_cast<size_t>(i % 97), 'p')),
      });
      ASSERT_TRUE(file.value()->Append(written.back()).ok());
    }
    ASSERT_TRUE(file.value()->FinishWrites().ok());
    EXPECT_EQ(file.value()->rows(), written.size());
    EXPECT_GT(file.value()->bytes(), size_t{64} * 1024);

    // Two full passes: Rewind replays from the top.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass > 0) {
        ASSERT_TRUE(file.value()->Rewind().ok());
      }
      size_t n = 0;
      Row row;
      while (true) {
        auto more = file.value()->Next(&row);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!more.value()) break;
        ASSERT_LT(n, written.size());
        EXPECT_EQ(row, written[n]);
        ++n;
      }
      EXPECT_EQ(n, written.size());
    }
  }
  // Destruction unlinks the temp file and drops the live count.
  EXPECT_EQ(SpillFile::LiveFileCount(), live_before);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, MidWriteFaultLeavesNoOrphanTempFiles) {
  FaultRegistry::Global().Reset();
  const uint64_t live_before = SpillFile::LiveFileCount();
  std::string path;
  {
    auto file = SpillFile::Create("");
    ASSERT_TRUE(file.ok());
    path = file.value()->path();
    FaultRegistry::Global().ArmNthHit("engine.spill.write", 1);
    Status status = file.value()->Append(Row{Value::Int(1)});
    if (status.ok()) status = file.value()->FinishWrites();
    EXPECT_EQ(status.code(), Status::Code::kIoError) << status.ToString();
  }
  FaultRegistry::Global().Reset();
  EXPECT_EQ(SpillFile::LiveFileCount(), live_before);
  EXPECT_FALSE(std::filesystem::exists(path));
}

// ---- Partitioning -------------------------------------------------------

TEST(SpillPartitionSetTest, PartitionOfIsLevelSalted) {
  // Hashes that collide modulo the fanout at one level must spread at
  // another — that is what makes recursive repartitioning productive.
  const size_t fanout = 8;
  bool some_level_differs = false;
  for (uint64_t h = 1; h <= 64; ++h) {
    const size_t p0 = SpillPartitionSet::PartitionOf(h, 0, fanout);
    EXPECT_LT(p0, fanout);
    for (int level = 1; level <= 6; ++level) {
      const size_t pl = SpillPartitionSet::PartitionOf(h, level, fanout);
      EXPECT_LT(pl, fanout);
      some_level_differs |= pl != p0;
    }
    // Deterministic: same (hash, level) always lands in the same bucket.
    EXPECT_EQ(p0, SpillPartitionSet::PartitionOf(h, 0, fanout));
  }
  EXPECT_TRUE(some_level_differs);
}

TEST(SpillPartitionSetTest, IdenticalHashesAllLandInOnePartition) {
  SpillPartitionSet set(4, 0, "");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(set.Add(0xDEADBEEF, Row{Value::Int(i)}).ok());
  }
  ASSERT_TRUE(set.FinishWrites().ok());
  EXPECT_EQ(set.rows(), 100u);
  size_t non_empty = 0;
  for (size_t p = 0; p < set.fanout(); ++p) {
    if (set.partition_rows(p) > 0) {
      ++non_empty;
      EXPECT_EQ(set.partition_rows(p), 100u);
    }
  }
  EXPECT_EQ(non_empty, 1u);
}

// ---- End-to-end spilling ------------------------------------------------

/// k = 0..n-1 with a 64-char payload: a plain hash aggregate over it holds
/// ~250B/group, far more than the materialized result, which is the gap
/// the budgets below sit inside.
std::shared_ptr<Table> IntsTable(size_t n) {
  auto table = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"payload", DataType::kString, ""},
  }));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    ->Append({Value::Int(static_cast<int64_t>(i)),
                              Value::Str(std::string(64, 'x'))})
                    .ok());
  }
  return table;
}

/// Rows as strings, order preserved: the spill contract is bit-identical
/// output, order included (grace paths restore arrival order via the
/// spilled sequence column).
std::vector<std::string> ExactRows(const Table& table) {
  std::vector<std::string> out;
  out.reserve(table.NumRows());
  for (const Row& row : table.rows()) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.push_back(std::move(line));
  }
  return out;
}

class SpillQueryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override {
    FaultRegistry::Global().Reset();
    EXPECT_EQ(SpillFile::LiveFileCount(), 0u);
  }

  /// The acceptance bar from docs/ROBUSTNESS.md: under `budget` the query
  /// fails with ResourceExhausted; with spill enabled it succeeds and
  /// matches the unbudgeted run bit-for-bit, order included.
  void ExpectSpillRescues(Database& db, const std::string& sql,
                          size_t budget) {
    auto reference = db.Query(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    db.set_memory_budget_bytes(budget);
    auto budgeted = db.Query(sql);
    ASSERT_FALSE(budgeted.ok()) << "budget " << budget << " did not bite";
    EXPECT_EQ(budgeted.status().code(), Status::Code::kResourceExhausted)
        << budgeted.status().ToString();

    db.set_spill_enabled(true);
    auto spilled = db.Query(sql);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_EQ(ExactRows(spilled.value()), ExactRows(reference.value()));
    EXPECT_EQ(SpillFile::LiveFileCount(), 0u);

    db.set_spill_enabled(false);
    db.set_memory_budget_bytes(0);
  }
};

TEST_F(SpillQueryTest, HashAggregateSpillsAndMatchesInMemory) {
  Database db;
  db.Register("ints", IntsTable(1000));
  // Two-component key widens the map-vs-result gap; k rides into the
  // output so the comparison checks per-group values, not just counts.
  ExpectSpillRescues(db, "SELECT k, count(*) FROM ints GROUP BY k, payload",
                     270000);
}

TEST_F(SpillQueryTest, HashJoinSpillsAndMatchesInMemory) {
  Database db;
  auto small = std::make_shared<Table>(Schema({
      Column{"sk", DataType::kInt64, ""},
  }));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(small->Append({Value::Int(i * 7)}).ok());
  }
  db.Register("small", small);
  db.Register("ints", IntsTable(1000));
  // Probe side is tiny, build side breaches the budget: the classic grace
  // join shape.
  ExpectSpillRescues(db, "SELECT sk FROM small, ints WHERE sk = k", 120000);
}

TEST_F(SpillQueryTest, SortSpillsToRunsAndKeepsStableOrder) {
  Database db;
  auto table = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"grp", DataType::kString, ""},
  }));
  Rng rng(23);
  for (int64_t i = 0; i < 1200; ++i) {
    // Seven distinct sort keys: heavy ties make stability observable.
    ASSERT_TRUE(
        table
            ->Append({Value::Int(i),
                      Value::Str("g" + std::to_string(rng.NextInt(0, 6)) +
                                 std::string(48, 's'))})
            .ok());
  }
  db.Register("seq", table);
  // LIMIT keeps the materialized result far below the sort's working set.
  ExpectSpillRescues(db, "SELECT k, grp FROM seq ORDER BY grp LIMIT 60",
                     60000);
}

TEST_F(SpillQueryTest, SgbGroupingSpillsAndMatchesInMemory) {
  Database db;
  auto pts = std::make_shared<Table>(Schema({
      Column{"x", DataType::kDouble, ""},
      Column{"y", DataType::kDouble, ""},
  }));
  Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(pts->Append({Value::Double(rng.NextUniform(0, 10)),
                             Value::Double(rng.NextUniform(0, 10))})
                    .ok());
  }
  db.Register("pts", pts);
  // The budget sits between the spilled footprint (resident points plus the
  // core's charged union-find and ε-grid, about 180 kB) and the in-memory
  // one (about 390 kB).
  ExpectSpillRescues(
      db,
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.4",
      240000);
}

TEST_F(SpillQueryTest, RepartitionTerminatesOnSingleHotKey) {
  // Every build row carries the same join key, so its hash never spreads:
  // repartitioning cannot make progress and must fail honestly instead of
  // recursing forever or crashing.
  Database db;
  auto dup = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"payload", DataType::kString, ""},
  }));
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(dup->Append({Value::Int(1), Value::Str(std::string(64, 'd'))})
                    .ok());
  }
  db.Register("dup", dup);
  auto probe = std::make_shared<Table>(Schema({
      Column{"pk", DataType::kInt64, ""},
  }));
  ASSERT_TRUE(probe->Append({Value::Int(1)}).ok());
  db.Register("probe", probe);

  db.set_memory_budget_bytes(100000);
  db.set_spill_enabled(true);
  auto result = db.Query("SELECT pk FROM probe, dup WHERE pk = k");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("repartition"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(SpillFile::LiveFileCount(), 0u);

  // The failure is a clean unwind: unbudgeted, the join completes.
  db.set_memory_budget_bytes(0);
  auto retry = db.Query("SELECT pk FROM probe, dup WHERE pk = k");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.value().NumRows(), 1500u);
}

TEST_F(SpillQueryTest, ExplainAnalyzeReportsSpillTotals) {
  Database db;
  db.Register("ints", IntsTable(1000));
  db.set_memory_budget_bytes(180000);
  db.set_spill_enabled(true);
  auto text = db.ExplainAnalyze("SELECT count(*) FROM ints GROUP BY k");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("spilled="), std::string::npos) << text.value();
  EXPECT_NE(text.value().find("spill_bytes="), std::string::npos)
      << text.value();

  // Without a breach there is nothing to report: the footer stays silent.
  db.set_memory_budget_bytes(0);
  auto quiet = db.ExplainAnalyze("SELECT count(*) FROM ints GROUP BY k");
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet.value().find("spilled="), std::string::npos)
      << quiet.value();
}

TEST_F(SpillQueryTest, SpillMetricsPublished) {
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t queries_before = registry.GetCounter("query.spilled").value();
  const uint64_t events_before = registry.GetCounter("spill.events").value();
  const uint64_t files_before = registry.GetCounter("spill.files").value();

  Database db;
  db.Register("ints", IntsTable(1000));
  db.set_memory_budget_bytes(180000);
  db.set_spill_enabled(true);
  ASSERT_TRUE(db.Query("SELECT count(*) FROM ints GROUP BY k").ok());

  EXPECT_EQ(registry.GetCounter("query.spilled").value(), queries_before + 1);
  EXPECT_GT(registry.GetCounter("spill.events").value(), events_before);
  EXPECT_GT(registry.GetCounter("spill.files").value(), files_before);
  EXPECT_GT(registry.GetCounter("spill.bytes").value(), 0u);
}

TEST_F(SpillQueryTest, SpillRespectsConfiguredDirectory) {
  const std::string dir = ::testing::TempDir() + "/sgb_spill_dir_test";
  std::filesystem::create_directories(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::filesystem::remove(entry.path());
  }

  Database db;
  db.Register("ints", IntsTable(1000));
  db.set_memory_budget_bytes(180000);
  db.set_spill_enabled(true);
  db.set_spill_directory(dir);
  ASSERT_TRUE(db.Query("SELECT count(*) FROM ints GROUP BY k").ok());
  // Files were created under `dir` and every one was unlinked again.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  EXPECT_EQ(SpillFile::LiveFileCount(), 0u);

  // An unusable directory proves the knob is honored: the spill attempt
  // fails with IoError instead of silently landing somewhere else.
  db.set_spill_directory(dir + "/does/not/exist");
  auto result = db.Query("SELECT count(*) FROM ints GROUP BY k");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIoError)
      << result.status().ToString();
  EXPECT_EQ(SpillFile::LiveFileCount(), 0u);
}

}  // namespace
}  // namespace sgb::engine
