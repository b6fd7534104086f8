#include <gtest/gtest.h>

#include <cstdlib>

#include "db/cost_model.h"
#include "hw/pu_kernel.h"
#include "sql/executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

OperatorCostModel::Calibration FixedCalibration() {
  // Deterministic calibration so choices are stable in tests:
  // LIKE scans at 2 GB/s, automata at 500 MB/s, scalar regex costs
  // 2 us/tuple; 10 cores.
  OperatorCostModel::Calibration cal;
  cal.like_bytes_per_sec = 2e9;
  cal.dfa_bytes_per_sec = 5e8;
  cal.simd_bytes_per_sec = 4e9;
  cal.regexp_tuple_seconds = 2e-6;
  cal.cpu_cores = 10;
  return cal;
}

TableStats BigTable() {
  TableStats stats;
  stats.rows = 2'500'000;
  stats.heap_bytes = stats.rows * 72;
  return stats;
}

TableStats TinyTable() {
  TableStats stats;
  stats.rows = 1'000;
  stats.heap_bytes = stats.rows * 72;
  return stats;
}

// The compiled objects the predictions read, built the way a query builds
// them: the ProgramCache's program, PlanHybrid's plan.
std::shared_ptr<const CompiledPuProgram> HostProgram(
    const std::string& pattern) {
  auto config = CompileRegexConfig(pattern, DeviceConfig{});
  EXPECT_TRUE(config.ok()) << pattern << ": " << config.status().ToString();
  auto program = CompiledPuProgram::Compile(config->vector, DeviceConfig{});
  EXPECT_TRUE(program.ok()) << pattern;
  return *program;
}

HybridPlan Plan(const std::string& pattern) {
  auto plan = PlanHybrid(pattern, DeviceConfig{});
  EXPECT_TRUE(plan.ok()) << pattern << ": " << plan.status().ToString();
  return std::move(*plan);
}

TEST(CostModelTest, MeasureProducesSaneNumbers) {
  auto cal = OperatorCostModel::Measure();
  EXPECT_GT(cal.like_bytes_per_sec, 1e7);
  EXPECT_GT(cal.dfa_bytes_per_sec, 1e6);
  EXPECT_GT(cal.simd_bytes_per_sec, 1e6);
  EXPECT_GT(cal.regexp_tuple_seconds, 1e-9);
  EXPECT_LT(cal.regexp_tuple_seconds, 1e-3);
}

TEST(CostModelTest, HostProgramPredictionTracksRegistryChoice) {
  unsetenv("DOPPIO_FORCE_BACKEND");
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());

  // Word-sized automaton chain and a literal: both SIMD-served, costed
  // at the SIMD throughput.
  auto word =
      model.PredictHostProgram(*HostProgram("8[0-9][0-9][0-9][0-9]"),
                               BigTable());
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(word->backend, BackendId::kCpuSimd);
  auto literal = model.PredictHostProgram(*HostProgram("Strasse"), BigTable());
  ASSERT_TRUE(literal.ok());
  EXPECT_EQ(literal->backend, BackendId::kCpuSimd);
  const double simd_expect = static_cast<double>(BigTable().heap_bytes) /
                             FixedCalibration().simd_bytes_per_sec;
  EXPECT_DOUBLE_EQ(word->seconds, simd_expect);

  // Broad-start fan-out: scalar backend, automaton throughput.
  auto broad =
      model.PredictHostProgram(*HostProgram("([a-z]a|[0-9]b)"), BigTable());
  ASSERT_TRUE(broad.ok());
  EXPECT_EQ(broad->backend, BackendId::kCpuScalar);
  EXPECT_GT(broad->seconds, word->seconds);

  // Over-capacity patterns cannot run as a compiled program at all.
  auto oversized =
      CompileRegexConfig(QueryPattern(EvalQuery::kQH), DeviceConfig{});
  EXPECT_TRUE(oversized.status().IsCapacityExceeded());
}

TEST(CostModelTest, ForcedBackendOverridesHostPrediction) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  setenv("DOPPIO_FORCE_BACKEND", "scalar", 1);
  auto forced_scalar =
      model.PredictHostProgram(*HostProgram("Strasse"), BigTable());
  ASSERT_TRUE(forced_scalar.ok());
  EXPECT_EQ(forced_scalar->backend, BackendId::kCpuScalar);

  setenv("DOPPIO_FORCE_BACKEND", "simd", 1);
  auto forced_simd =
      model.PredictHostProgram(*HostProgram("([a-z]a|[0-9]b)"), BigTable());
  ASSERT_TRUE(forced_simd.ok());
  EXPECT_EQ(forced_simd->backend, BackendId::kCpuSimd);
  unsetenv("DOPPIO_FORCE_BACKEND");
}

TEST(CostModelTest, PredictionsScaleWithData) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  EXPECT_GT(model.PredictLike(BigTable()), model.PredictLike(TinyTable()));
  EXPECT_GT(model.PredictRegexpLike(BigTable()),
            model.PredictRegexpLike(TinyTable()));
  auto config = CompileRegexConfig("Strasse", DeviceConfig{});
  ASSERT_TRUE(config.ok());
  EXPECT_GT(model.PredictFpga(*config, BigTable()),
            model.PredictFpga(*config, TinyTable()));
}

TEST(CostModelTest, FpgaPredictionRejectsOversizedPatterns) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  auto r = CompileRegexConfig(QueryPattern(EvalQuery::kQH), DeviceConfig{});
  EXPECT_TRUE(r.status().IsCapacityExceeded());
  // ... but the hybrid prediction still works.
  HybridPlan plan = Plan(QueryPattern(EvalQuery::kQH));
  EXPECT_EQ(plan.strategy, HybridStrategy::kHybrid);
  EXPECT_GT(model.PredictHybrid(plan, BigTable()), 0.0);
}

TEST(CostModelTest, ChoosesFpgaForComplexPatternsOnBigTables) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kAuto;
  spec.pattern = QueryPattern(EvalQuery::kQ2);
  HybridPlan plan = Plan(spec.pattern);
  auto choice = model.Choose(spec, BigTable(), &plan);
  EXPECT_EQ(choice.op, StringFilterSpec::Op::kRegexpFpga);
  EXPECT_LT(choice.predicted_seconds,
            model.PredictRegexpLike(BigTable()));
}

TEST(CostModelTest, ChoosesSoftwareWithoutFpga) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kAuto;
  spec.pattern = QueryPattern(EvalQuery::kQ2);
  auto choice = model.Choose(spec, BigTable(), /*plan=*/nullptr);
  EXPECT_EQ(choice.op, StringFilterSpec::Op::kRegexpLike);
}

TEST(CostModelTest, SubstringRegexCanTakeTheLikeFastPath) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kAuto;
  spec.pattern = "Strasse";  // regex dialect, but a pure substring
  auto choice = model.Choose(spec, BigTable(), /*plan=*/nullptr);
  EXPECT_EQ(choice.op, StringFilterSpec::Op::kLike);
  EXPECT_EQ(choice.rewritten_pattern, "%Strasse%");

  // Multi-substring with '.*' glue.
  spec.pattern = "Alan.*Turing";
  choice = model.Choose(spec, BigTable(), nullptr);
  EXPECT_EQ(choice.op, StringFilterSpec::Op::kLike);
  EXPECT_EQ(choice.rewritten_pattern, "%Alan%Turing%");
}

TEST(CostModelTest, OversizedPatternFallsToHybrid) {
  OperatorCostModel model(DeviceConfig{}, FixedCalibration());
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kAuto;
  spec.pattern = QueryPattern(EvalQuery::kQH);
  HybridPlan plan = Plan(spec.pattern);
  auto choice = model.Choose(spec, BigTable(), &plan);
  EXPECT_EQ(choice.op, StringFilterSpec::Op::kHybrid);
}

TEST(CostModelTest, EndToEndAutoThroughSql) {
  Hal::Options hal_options;
  hal_options.shared_memory_bytes = 64 * kSharedPageBytes;
  hal_options.functional_threads = 2;
  Hal hal(hal_options);
  ColumnStoreEngine::Options options;
  options.num_threads = 2;
  options.sequential_pipe = true;
  options.hal = &hal;
  ColumnStoreEngine engine(options);

  AddressDataOptions data;
  data.num_records = 20'000;
  auto table =
      GenerateAddressTable(data, "address_table", engine.allocator());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engine.catalog()->AddTable(std::move(*table)).ok());

  auto auto_outcome = sql::ExecuteQuery(
      &engine,
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_AUTO('" + QueryPattern(EvalQuery::kQ2) + "', "
      "address_string) <> 0;");
  ASSERT_TRUE(auto_outcome.ok()) << auto_outcome.status().ToString();
  auto reference = sql::ExecuteQuery(
      &engine, QuerySql(EvalQuery::kQ2, QueryEngineVariant::kFpga));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*auto_outcome->result.ScalarInt(),
            *reference->result.ScalarInt());
  EXPECT_EQ(auto_outcome->stats.strategy.rfind("auto->", 0), 0u)
      << auto_outcome->stats.strategy;
}

TEST(CostModelTest, AutoOnOversizedPatternStillCorrect) {
  Hal::Options hal_options;
  hal_options.shared_memory_bytes = 64 * kSharedPageBytes;
  hal_options.functional_threads = 2;
  Hal hal(hal_options);
  ColumnStoreEngine::Options options;
  options.num_threads = 2;
  options.sequential_pipe = true;
  options.hal = &hal;
  ColumnStoreEngine engine(options);

  AddressDataOptions data;
  data.num_records = 10'000;
  data.selectivity = 0;
  data.qh_selectivity = 0.25;
  auto table =
      GenerateAddressTable(data, "address_table", engine.allocator());
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engine.catalog()->AddTable(std::move(*table)).ok());

  auto auto_outcome = sql::ExecuteQuery(
      &engine,
      "SELECT count(*) FROM address_table WHERE "
      "REGEXP_AUTO('" + QueryPattern(EvalQuery::kQH) + "', "
      "address_string) <> 0;");
  ASSERT_TRUE(auto_outcome.ok()) << auto_outcome.status().ToString();
  auto reference = sql::ExecuteQuery(
      &engine,
      QuerySql(EvalQuery::kQH, QueryEngineVariant::kMonetSoftware));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*auto_outcome->result.ScalarInt(),
            *reference->result.ScalarInt());
}

}  // namespace
}  // namespace doppio
