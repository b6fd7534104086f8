#include <gtest/gtest.h>

#include <algorithm>

#include "db/hybrid_executor.h"
#include "regex/dfa_matcher.h"
#include "sched/result_cache.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

Hal::Options SmallHal(int max_chars = 16, int max_states = 8) {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;
  options.functional_threads = 2;
  options.device.max_chars = max_chars;
  options.device.max_states = max_states;
  return options;
}

TEST(HybridPlanTest, FittingPatternGoesFpgaOnly) {
  DeviceConfig device;
  auto plan = PlanHybrid("Strasse", device);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, HybridStrategy::kFpgaOnly);
  EXPECT_EQ(plan->fpga_pattern, "Strasse");
}

TEST(HybridPlanTest, OversizedPatternSplitsAtWildcard) {
  DeviceConfig device;
  device.max_chars = 24;  // QH needs ~30 matchers: prefix fits, full does not
  auto plan = PlanHybrid(QueryPattern(EvalQuery::kQH), device);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, HybridStrategy::kHybrid);
  // The offloaded prefix is the Q2 part of QH.
  EXPECT_EQ(plan->full_pattern, QueryPattern(EvalQuery::kQH));
  EXPECT_NE(plan->fpga_pattern, plan->full_pattern);
  EXPECT_NE(plan->fpga_pattern.find("Strasse"), std::string::npos);
  EXPECT_EQ(plan->fpga_pattern.find("delivery"), std::string::npos);
}

TEST(HybridPlanTest, HopelessPatternFallsToSoftware) {
  DeviceConfig device;
  device.max_chars = 4;  // nothing useful fits
  auto plan = PlanHybrid(QueryPattern(EvalQuery::kQH), device);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, HybridStrategy::kSoftwareOnly);
}

class HybridExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AddressDataOptions data;
    data.num_records = 20'000;
    data.selectivity = 0;      // isolate the QH hits
    data.q2_selectivity = 0;   // every QH-prefix match carries "delivery"
    data.qh_selectivity = 0.3;
    auto table = GenerateAddressTable(data, "addr");
    ASSERT_TRUE(table.ok());
    table_ = std::move(*table);
  }

  // Copies the generated strings into a HAL-allocated BAT.
  std::unique_ptr<Bat> SharedStrings(Hal* hal) {
    auto bat = std::make_unique<Bat>(ValueType::kString,
                                     hal->bat_allocator());
    const Bat* src = table_->GetColumn("address_string");
    for (int64_t i = 0; i < src->count(); ++i) {
      EXPECT_TRUE(bat->AppendString(src->GetString(i)).ok());
    }
    return bat;
  }

  int64_t GroundTruth(const std::string& pattern) {
    auto dfa = DfaMatcher::Compile(pattern);
    EXPECT_TRUE(dfa.ok());
    const Bat* src = table_->GetColumn("address_string");
    int64_t count = 0;
    for (int64_t i = 0; i < src->count(); ++i) {
      if ((*dfa)->Matches(src->GetString(i))) ++count;
    }
    return count;
  }

  std::unique_ptr<Table> table_;
};

TEST_F(HybridExecTest, HybridMatchesGroundTruth) {
  Hal hal(SmallHal(/*max_chars=*/24));
  auto input = SharedStrings(&hal);
  auto result = ExecuteHybrid(&hal, *input, QueryPattern(EvalQuery::kQH));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->strategy, HybridStrategy::kHybrid);
  int64_t matched = 0;
  for (int64_t i = 0; i < input->count(); ++i) {
    if (result->result->GetInt16(i) != 0) ++matched;
  }
  EXPECT_EQ(matched, GroundTruth(QueryPattern(EvalQuery::kQH)));
  // The FPGA pre-filter actually pruned work: the CPU saw only candidate
  // rows, not the whole table.
  EXPECT_GT(result->cpu_postprocessed, 0);
  EXPECT_LT(result->cpu_postprocessed, input->count());
  EXPECT_GT(result->stats.hw_seconds, 0.0);
  EXPECT_GT(result->stats.udf_software_seconds, 0.0);
}

TEST_F(HybridExecTest, FpgaOnlyPathMatchesGroundTruth) {
  Hal hal(SmallHal(/*max_chars=*/64, /*max_states=*/16));
  auto input = SharedStrings(&hal);
  auto result = ExecuteHybrid(&hal, *input, QueryPattern(EvalQuery::kQH));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, HybridStrategy::kFpgaOnly);
  int64_t matched = 0;
  for (int64_t i = 0; i < input->count(); ++i) {
    if (result->result->GetInt16(i) != 0) ++matched;
  }
  EXPECT_EQ(matched, GroundTruth(QueryPattern(EvalQuery::kQH)));
}

TEST_F(HybridExecTest, SoftwareFallbackMatchesGroundTruth) {
  Hal hal(SmallHal(/*max_chars=*/4));
  auto input = SharedStrings(&hal);
  auto result = ExecuteHybrid(&hal, *input, QueryPattern(EvalQuery::kQH));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->strategy, HybridStrategy::kSoftwareOnly);
  int64_t matched = 0;
  for (int64_t i = 0; i < input->count(); ++i) {
    if (result->result->GetInt16(i) != 0) ++matched;
  }
  EXPECT_EQ(matched, GroundTruth(QueryPattern(EvalQuery::kQH)));
}

TEST_F(HybridExecTest, PostprocessedFractionTracksSelectivity) {
  // The paper's point (Fig. 13): the prefix's selectivity is exactly the
  // fraction the CPU must post-process.
  Hal hal(SmallHal(/*max_chars=*/24));
  auto input = SharedStrings(&hal);
  auto result = ExecuteHybrid(&hal, *input, QueryPattern(EvalQuery::kQH));
  ASSERT_TRUE(result.ok());
  double fraction = static_cast<double>(result->cpu_postprocessed) /
                    static_cast<double>(input->count());
  EXPECT_NEAR(fraction, 0.3, 0.03);
}

// --- Hybrid continuation ----------------------------------------------------
//
// The CPU resumes a split plan at the device's match index and matches only
// the suffix. Every value must equal what the unsplit pattern returns on a
// PU large enough to hold it: the DFA oracle's earliest end, saturated at
// 65535.

uint16_t OracleValue(const DfaMatcher& dfa, std::string_view text) {
  const MatchResult m = dfa.Find(text);
  return m.matched ? static_cast<uint16_t>(std::min<int32_t>(m.end, 65535))
                   : uint16_t{0};
}

void ExpectOracleValues(const DfaMatcher& dfa, const Bat& input,
                        const Bat& result, const std::string& label) {
  ASSERT_EQ(result.count(), input.count()) << label;
  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ(static_cast<uint16_t>(result.GetInt16(i)),
              OracleValue(dfa, input.GetString(i)))
        << label << ", row " << i;
  }
}

TEST(HybridContinuationTest, SplitPlansReturnTheFullPatternsDeviceValues) {
  Hal hal(SmallHal(/*max_chars=*/24));  // QH's Q2 prefix fits, QH does not
  const std::string pad(40'000, 'x');   // pushes an end past 32767
  const std::string far(65'600, 'x');   // pushes the prefix's end past 65535
  // Rows whose prefix ends before 65535: their pre-filter block is
  // complete, so the result cache keeps it.
  const std::vector<std::string> cacheable = {
      "Strasse 81234 delivery",
      "Strasse 81234 pickup",                     // fails the suffix
      "delivery to Strasse 81234",                // suffix only before
      "Str. 85555 delivery, then Strasse 81234",  // between two prefixes
      "Strasse 81234 DELIVERY",                   // case folding decides
      "STRASSE 81234 delivery",
      "",
      "no address at all",
      "Strasse 81234 " + pad + "delivery",  // full match ends past 32767
      pad + "Str. 81234 delivery",          // prefix ends past 32767
      "Strasse 81234 " + far + "delivery",  // the tail's end saturates
  };
  // Rows of at least 65 536 bytes whose prefix ends past 65535: the device
  // value saturates, so the post-process runs the full pattern.
  const std::vector<std::string> saturated = {
      far + "Strasse 81234 delivery",
      far + "Strasse 81234 pickup",
  };
  Bat all(ValueType::kString, hal.bat_allocator());
  Bat complete(ValueType::kString, hal.bat_allocator());
  for (const std::string& row : cacheable) {
    ASSERT_TRUE(all.AppendString(row).ok());
    ASSERT_TRUE(complete.AppendString(row).ok());
  }
  for (const std::string& row : saturated) {
    ASSERT_TRUE(all.AppendString(row).ok());
  }

  CompileOptions folded;
  folded.case_insensitive = true;
  const std::string qh = QueryPattern(EvalQuery::kQH);
  const std::string q2 = QueryPattern(EvalQuery::kQ2);
  struct Case {
    std::string pattern;
    CompileOptions options;
    bool suffix_compiles;
  };
  const Case cases[] = {
      {qh, {}, true},
      {qh, folded, true},
      // The suffix's only occurrence starts inside the prefix's match.
      {q2 + ".*4 delivery", {}, true},
      // Suffixes the config compiler rejects: one matches the empty
      // string, one needs 260 character matchers.
      {q2 + ".*(delivery)?", {}, false},
      {q2 + ".*[a-z]{130}", {}, false},
  };
  for (const Case& c : cases) {
    const std::string label =
        c.pattern + (c.options.case_insensitive ? " (folded)" : "");
    auto plan = PlanHybrid(c.pattern, hal.device_config(), c.options);
    ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
    ASSERT_EQ(plan->strategy, HybridStrategy::kHybrid) << label;
    EXPECT_EQ(plan->cpu_suffix != nullptr, c.suffix_compiles) << label;
    auto dfa = DfaMatcher::Compile(c.pattern, c.options);
    ASSERT_TRUE(dfa.ok()) << label;

    // The saturated rows' pre-filter values really are saturated.
    auto prefilter = RegexpFpga(&hal, all, *plan->fpga_config);
    ASSERT_TRUE(prefilter.ok()) << label;
    for (int64_t i = static_cast<int64_t>(cacheable.size()); i < all.count();
         ++i) {
      EXPECT_EQ(static_cast<uint16_t>(prefilter->result->GetInt16(i)), 65535)
          << label << ", row " << i;
    }

    auto cold = ExecuteHybrid(&hal, all, *plan);
    ASSERT_TRUE(cold.ok()) << label << ": " << cold.status().ToString();
    EXPECT_EQ(cold->stats.strategy, "hybrid") << label;
    ExpectOracleValues(**dfa, all, *cold->result, label + ", cold");

    sched::ResultCache cache(1 << 24);
    auto fill = ExecuteHybrid(&hal, complete, *plan, &cache);
    ASSERT_TRUE(fill.ok()) << label;
    EXPECT_EQ(fill->stats.strategy, "hybrid") << label;
    auto served = ExecuteHybrid(&hal, complete, *plan, &cache);
    ASSERT_TRUE(served.ok()) << label;
    EXPECT_EQ(served->stats.strategy, "hybrid+cache_prefilter") << label;
    ExpectOracleValues(**dfa, complete, *served->result, label + ", cached");
  }
}

}  // namespace
}  // namespace doppio
