// End-to-end integration: SQL -> planner -> engine -> HUDF -> simulated
// FPGA -> results, exercising the full Fig. 3 flow.
#include <gtest/gtest.h>

#include <thread>

#include "db/column_store.h"
#include "hal/hal.h"
#include "obs/metrics.h"
#include "sql/executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

using sql::ExecuteQuery;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hal::Options hal_options;
    hal_options.shared_memory_bytes = 128 * kSharedPageBytes;  // 256 MiB
    hal_options.functional_threads = 4;
    hal_ = std::make_unique<Hal>(hal_options);

    ColumnStoreEngine::Options options;
    options.num_threads = 4;
    options.sequential_pipe = true;  // the paper's HUDF configuration
    options.hal = hal_.get();
    engine_ = std::make_unique<ColumnStoreEngine>(options);

    AddressDataOptions data;
    data.num_records = 30'000;
    // BATs land in CPU-FPGA shared memory through the engine's allocator.
    auto table =
        GenerateAddressTable(data, "address_table", engine_->allocator());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(*table)).ok());
  }

  int64_t Scalar(const std::string& sql_text, QueryStats* stats = nullptr) {
    auto outcome = ExecuteQuery(engine_.get(), sql_text);
    EXPECT_TRUE(outcome.ok()) << sql_text << ": "
                              << outcome.status().ToString();
    if (!outcome.ok()) return -1;
    if (stats != nullptr) *stats = outcome->stats;
    auto v = outcome->result.ScalarInt();
    EXPECT_TRUE(v.ok());
    return v.ok() ? *v : -1;
  }

  std::unique_ptr<Hal> hal_;
  std::unique_ptr<ColumnStoreEngine> engine_;
};

TEST_F(IntegrationTest, FpgaAndSoftwareAgreeOnEveryQuery) {
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    int64_t sw =
        Scalar(QuerySql(q, QueryEngineVariant::kMonetSoftware));
    int64_t hw = Scalar(QuerySql(q, QueryEngineVariant::kFpga));
    EXPECT_EQ(sw, hw) << QueryName(q);
    EXPECT_GT(sw, 0) << QueryName(q);
  }
}

int64_t ConfigCompiles() {
  return obs::MetricsRegistry::Global()
      .GetCounter("doppio.regex.config_compiles")
      ->Value();
}

// Each statement compiles its pattern once: the cost model and the hybrid
// executor read the plan. An over-capacity pattern compiles three times —
// the full attempt that fails, the prefix that fits, and the suffix the
// CPU resumes with.
TEST_F(IntegrationTest, EachStatementCompilesItsPatternOnce) {
  (void)engine_->cost_model();  // calibrate outside the measured window
  auto compiles_of = [&](const std::string& sql_text) {
    const int64_t before = ConfigCompiles();
    Scalar(sql_text);
    return ConfigCompiles() - before;
  };
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    EXPECT_EQ(compiles_of(QuerySql(q, QueryEngineVariant::kFpga)), 1)
        << QueryName(q);
  }
  const std::string where = " FROM address_table WHERE ";
  EXPECT_EQ(compiles_of("SELECT count(*)" + where + "REGEXP_AUTO('" +
                        QueryPattern(EvalQuery::kQ3) +
                        "', address_string) <> 0;"),
            1);
  EXPECT_EQ(compiles_of(QuerySql(EvalQuery::kQH, QueryEngineVariant::kHybrid)),
            3);
  EXPECT_EQ(compiles_of("SELECT count(*)" + where + "REGEXP_AUTO('" +
                        QueryPattern(EvalQuery::kQH) +
                        "', address_string) <> 0;"),
            3);
}

// An escaped '$' is a literal: the planned prefix runs on the device
// instead of re-parsing as an anchor and degrading to a software scan.
TEST_F(IntegrationTest, EscapedDollarKeepsTheHybridOnTheDevice) {
  const std::string pattern = R"([0-9]+\$.*(shipping|delivery|handling))";
  QueryStats stats;
  const int64_t hybrid = Scalar(
      "SELECT count(*) FROM address_table WHERE REGEXP_HYBRID('" + pattern +
          "', address_string) <> 0;",
      &stats);
  EXPECT_EQ(stats.strategy, "hybrid");
  EXPECT_GT(stats.hw_seconds, 0.0);
  EXPECT_EQ(hybrid, Scalar("SELECT count(*) FROM address_table WHERE "
                           "REGEXP_LIKE(address_string, '" +
                           pattern + "');"));
}

TEST_F(IntegrationTest, FpgaPathReportsHardwarePhases) {
  QueryStats stats;
  int64_t count =
      Scalar(QuerySql(EvalQuery::kQ2, QueryEngineVariant::kFpga), &stats);
  EXPECT_GT(count, 0);
  EXPECT_GT(stats.hw_seconds, 0.0);
  EXPECT_GE(stats.config_gen_seconds, 0.0);
  EXPECT_EQ(stats.strategy, "fpga");
  EXPECT_EQ(stats.rows_scanned, 30'000);
}

TEST_F(IntegrationTest, SoftwarePathHasNoHardwarePhases) {
  QueryStats stats;
  Scalar(QuerySql(EvalQuery::kQ2, QueryEngineVariant::kMonetSoftware),
         &stats);
  EXPECT_EQ(stats.hw_seconds, 0.0);
  EXPECT_GT(stats.database_seconds, 0.0);
}

TEST_F(IntegrationTest, HybridUdfOnOversizedPattern) {
  // QH does not fit the default 24-character deployment: REGEXP_HYBRID
  // must pre-filter on the FPGA and post-process on the CPU, and agree
  // with pure software.
  QueryStats stats;
  int64_t hybrid =
      Scalar(QuerySql(EvalQuery::kQH, QueryEngineVariant::kHybrid), &stats);
  EXPECT_EQ(stats.strategy, "hybrid");
  int64_t sw =
      Scalar(QuerySql(EvalQuery::kQH, QueryEngineVariant::kMonetSoftware));
  EXPECT_EQ(hybrid, sw);
}

TEST_F(IntegrationTest, OversizedPatternOnPlainFpgaFails) {
  auto outcome = ExecuteQuery(
      engine_.get(), QuerySql(EvalQuery::kQH, QueryEngineVariant::kFpga));
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsCapacityExceeded());
}

TEST_F(IntegrationTest, InterchangeableOperators) {
  // The HUDF takes the same arguments as the software operator and the two
  // can be used interchangeably (paper §4.1) — including both argument
  // orders.
  int64_t a = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_LIKE(address_string, 'Strasse');");
  int64_t b = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_FPGA('Strasse', address_string) <> 0;");
  int64_t c = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "address_string LIKE '%Strasse%';");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST_F(IntegrationTest, NegatedFpgaPredicate) {
  int64_t pos = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_FPGA('Strasse', address_string) <> 0;");
  int64_t neg = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_FPGA('Strasse', address_string) = 0;");
  EXPECT_EQ(pos + neg, 30'000);
}

// The HUDF's result selects exactly the matching rows with `<> 0` and
// exactly the others with `= 0`.
TEST_F(IntegrationTest, FpgaResultSelectsHitsAndMisses) {
  auto table = std::make_unique<Table>("streets");
  auto id = std::make_unique<Bat>(ValueType::kInt32, engine_->allocator());
  auto street = std::make_unique<Bat>(ValueType::kString, engine_->allocator());
  int32_t next = 0;
  for (const char* s : {"Gasse 1", "Strasse 7", "Weg 2", "Alte Strasse 12",
                        "Strasse 1"}) {
    ASSERT_TRUE(id->AppendInt32(next++).ok());
    ASSERT_TRUE(street->AppendString(s).ok());
  }
  ASSERT_TRUE(table->AddColumn("id", std::move(id)).ok());
  ASSERT_TRUE(table->AddColumn("street", std::move(street)).ok());
  ASSERT_TRUE(engine_->catalog()->AddTable(std::move(table)).ok());

  auto ids = [&](const std::string& where) {
    auto outcome =
        ExecuteQuery(engine_.get(), "SELECT id FROM streets WHERE " + where);
    EXPECT_TRUE(outcome.ok()) << where << ": "
                              << outcome.status().ToString();
    if (!outcome.ok()) return std::vector<int64_t>{};
    EXPECT_EQ(outcome->stats.strategy, "fpga");
    return outcome->result.columns[0].ints;
  };
  EXPECT_EQ(ids("REGEXP_FPGA('Strasse', street) <> 0"),
            (std::vector<int64_t>{1, 3, 4}));
  EXPECT_EQ(ids("REGEXP_FPGA('Strasse', street) = 0"),
            (std::vector<int64_t>{0, 2}));
}

// The paper's query shape: the HUDF's result turns into the rows it
// selects, which are counted, or projected and each one checked.
TEST_F(IntegrationTest, PaperQueryCountsAndProjectsTheMatches) {
  auto table = std::make_unique<Table>("koblenz");
  auto s = std::make_unique<Bat>(ValueType::kString, engine_->allocator());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        s->AppendString(i % 4 == 0 ? "Koblenzer Strasse 1"
                                   : "Koblenzer Gasse 1")
            .ok());
  }
  ASSERT_TRUE(table->AddColumn("s", std::move(s)).ok());
  ASSERT_TRUE(engine_->catalog()->AddTable(std::move(table)).ok());

  EXPECT_EQ(Scalar("SELECT count(*) FROM koblenz WHERE "
                   "REGEXP_FPGA('Strasse', s) <> 0"),
            125);
  auto matched = ExecuteQuery(
      engine_.get(),
      "SELECT s FROM koblenz WHERE REGEXP_FPGA('Strasse', s) <> 0");
  ASSERT_TRUE(matched.ok()) << matched.status().ToString();
  ASSERT_EQ(matched->result.num_rows(), 125);
  for (const std::string& row : matched->result.columns[0].strings) {
    EXPECT_NE(row.find("Strasse"), std::string::npos) << row;
  }
}

TEST_F(IntegrationTest, ConjunctionOfFpgaAndComparison) {
  int64_t count = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_FPGA('Strasse', address_string) <> 0 AND id < 15000;");
  int64_t full = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_FPGA('Strasse', address_string) <> 0;");
  EXPECT_GT(count, 0);
  EXPECT_LT(count, full);
}

// A statement with several string predicates reports each one's strategy
// once, in predicate order, and REGEXP_AUTO prefixes only its own part.
// Which operator AUTO picks depends on the calibration and is not pinned.
TEST_F(IntegrationTest, EveryPredicateKeepsItsStrategy) {
  auto table = std::make_unique<Table>("people");
  auto name = std::make_unique<Bat>(ValueType::kString, engine_->allocator());
  for (const char* n : {"alice", "bob", "carol", "dave", "eve"}) {
    ASSERT_TRUE(name->AppendString(n).ok());
  }
  ASSERT_TRUE(table->AddColumn("name", std::move(name)).ok());
  ASSERT_TRUE(engine_->catalog()->AddTable(std::move(table)).ok());
  auto strategy_of = [&](const std::string& where) {
    QueryStats stats;
    Scalar("SELECT count(*) FROM people WHERE " + where, &stats);
    return stats.strategy;
  };

  EXPECT_EQ(strategy_of("REGEXP_FPGA(name, 'a') AND name LIKE '%e%'"),
            "fpga+like");
  EXPECT_EQ(strategy_of("name LIKE '%e%' AND REGEXP_FPGA(name, 'a')"),
            "like+fpga");

  // "auto-><choice>+like" and "like+auto-><choice>": AUTO's choice is
  // non-empty and carries no prefix of its own.
  auto expect_parts = [](const std::string& strategy,
                         const std::string& before, const std::string& after) {
    const bool framed = strategy.size() > before.size() + after.size() &&
                        strategy.starts_with(before) &&
                        strategy.ends_with(after);
    EXPECT_TRUE(framed) << strategy;
    if (!framed) return;
    const std::string choice = strategy.substr(
        before.size(), strategy.size() - before.size() - after.size());
    EXPECT_EQ(choice.find("auto->"), std::string::npos) << strategy;
  };
  expect_parts(strategy_of("REGEXP_AUTO(name, 'a') AND name LIKE '%e%'"),
               "auto->", "+like");
  expect_parts(strategy_of("name LIKE '%e%' AND REGEXP_AUTO(name, 'a')"),
               "like+auto->", "");
}

TEST_F(IntegrationTest, ContainsVersusScanOperators) {
  ASSERT_TRUE(
      engine_->BuildContainsIndex("address_table", "address_string").ok());
  int64_t contains = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "CONTAINS(address_string, 'Strasse');");
  int64_t like = Scalar(
      "SELECT count(*) FROM address_table WHERE "
      "address_string LIKE '%Strasse%';");
  EXPECT_EQ(contains, like);
}

TEST_F(IntegrationTest, RealThreadsShareTheDevice) {
  // Multiple host threads act as concurrent clients issuing HUDF jobs
  // against the same (virtual-time) device; the cooperative busy-wait
  // must keep every client's results correct.
  const Bat* strings = engine_->catalog()
                           ->GetTable("address_table")
                           ->GetColumn("address_string");
  auto config = hal_->CompileConfig(QueryPattern(EvalQuery::kQ1));
  ASSERT_TRUE(config.ok());

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  std::vector<int64_t> counts(kThreads * kJobsPerThread, -1);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        auto result = Bat::New(ValueType::kInt16, strings->count(),
                               hal_->bat_allocator());
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE((*result)->AppendZeros(strings->count()).ok());
        auto job = hal_->CreateRegexJob(*strings, result->get(), *config);
        ASSERT_TRUE(job.ok()) << job.status().ToString();
        ASSERT_TRUE(job->Wait().ok());
        counts[static_cast<size_t>(t * kJobsPerThread + j)] =
            job->status().matches;
      }
    });
  }
  for (auto& c : clients) c.join();
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[0]);
  }
  EXPECT_GT(counts[0], 0);
}

TEST_F(IntegrationTest, ConcurrentQueriesThroughFourEngines) {
  // Submit several HUDF jobs back to back; the device dispatches them
  // across its engines and every result stays correct.
  std::vector<int64_t> counts;
  for (int round = 0; round < 3; ++round) {
    for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ3}) {
      counts.push_back(Scalar(QuerySql(q, QueryEngineVariant::kFpga)));
    }
  }
  for (size_t i = 2; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[i - 2]);
  }
}

}  // namespace
}  // namespace doppio
