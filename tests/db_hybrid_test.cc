#include <gtest/gtest.h>

#include <algorithm>

#include "db/hybrid_executor.h"
#include "hw/kernel_backend.h"
#include "regex/dfa_matcher.h"
#include "sched/program_cache.h"
#include "sched/result_cache.h"
#include "sched/scheduler.h"
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

// --- One value convention ---------------------------------------------------

TEST(SoftwareScanTest, WritesDeviceSemantics) {
  // The software scan saturates like the device: ends at 40 000 and
  // 70 000 bytes read 40 000 and 65 535 through uint16_t, as RegexpHost
  // returns them.
  Hal hal(SmallHal(/*max_chars=*/64, /*max_states=*/16));
  Bat input(ValueType::kString, hal.bat_allocator());
  for (const std::string& row :
       {std::string(40'000 - 7, 'x') + "Strasse",
        std::string(70'000 - 7, 'x') + "Strasse", std::string("Strasse"),
        std::string("no address at all")}) {
    ASSERT_TRUE(input.AppendString(row).ok());
  }
  auto software = RunDfaScanInSoftware(input, "Strasse");
  ASSERT_TRUE(software.ok()) << software.status().ToString();
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto host = RegexpHost(hal.device_config(), input, *config);
  ASSERT_TRUE(host.ok()) << host.status().ToString();
  const uint16_t want[] = {40'000, 65'535, 7, 0};
  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ(static_cast<uint16_t>(software->result->GetInt16(i)), want[i])
        << "row " << i;
    EXPECT_EQ(software->result->GetInt16(i), host->result->GetInt16(i))
        << "row " << i;
  }
  EXPECT_EQ(software->stats.rows_matched, 3);
}

// --- The scheduler's over-capacity route -------------------------------------
//
// A pattern the device cannot hold is planned like REGEXP_HYBRID: the
// scheduler routes, caches and serves its '.*'-cut prefix's program, and
// the scan executor resumes each candidate with the plan's continuation.
// The values equal ExecuteHybrid's.

/// A HAL-allocated column of `rows` generated addresses, 30% of which
/// match QH.
std::unique_ptr<Bat> AddressColumn(Hal* hal, int64_t rows) {
  AddressDataOptions data;
  data.num_records = rows;
  data.selectivity = 0;
  data.q2_selectivity = 0;
  data.qh_selectivity = 0.3;
  auto table = GenerateAddressTable(data, "addr");
  EXPECT_TRUE(table.ok());
  auto bat = std::make_unique<Bat>(ValueType::kString, hal->bat_allocator());
  const Bat* src = (*table)->GetColumn("address_string");
  for (int64_t i = 0; i < src->count(); ++i) {
    EXPECT_TRUE(bat->AppendString(src->GetString(i)).ok());
  }
  return bat;
}

void ExpectSameValues(const Bat& expected, const Bat& got,
                      const std::string& label) {
  ASSERT_EQ(got.count(), expected.count()) << label;
  for (int64_t i = 0; i < expected.count(); ++i) {
    ASSERT_EQ(got.GetInt16(i), expected.GetInt16(i)) << label << ", row " << i;
  }
}

int64_t Nonzero(const Bat& values) {
  int64_t n = 0;
  for (int64_t i = 0; i < values.count(); ++i) n += values.GetInt16(i) != 0;
  return n;
}

TEST(SchedulerSplitTest, SmallColumnRunsThePrefixThenRepeatsFromTheCache) {
  Hal hal(SmallHal(/*max_chars=*/24));  // QH's Q2 prefix fits, QH does not
  auto input = AddressColumn(&hal, 200);
  const std::string qh = QueryPattern(EvalQuery::kQH);
  auto plan = PlanHybrid(qh, hal.device_config());
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->strategy, HybridStrategy::kHybrid);
  auto expected = ExecuteHybrid(&hal, *input, *plan);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(Nonzero(*expected->result), 0);
  auto prefilter = RegexpFpga(&hal, *input, *plan->fpga_config);
  ASSERT_TRUE(prefilter.ok());

  sched::QueryScheduler::Options options;  // cost routing on
  options.result_cache = true;
  sched::QueryScheduler scheduler(&hal, options);
  sched::Session* session = scheduler.CreateSession();
  auto cold = scheduler.Execute(session, *input, qh);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  // At most cpu_route_max_rows rows: the host, unless the device is
  // forced.
  const bool forced_fpga = ForcedBackend() == BackendId::kFpgaSim;
  EXPECT_EQ(cold->route, forced_fpga ? sched::Route::kFpga
                                     : sched::Route::kCpuProgram);
  ExpectSameValues(*expected->result, *cold->hudf.result, "cold");
  EXPECT_EQ(cold->hudf.stats.rows_matched, Nonzero(*expected->result));

  // The prefix's values entered the result cache under the prefix
  // program's own key, exactly the block a plain scan of it leaves.
  CacheHit hit = ResolveCached(scheduler.result_cache(), *plan->fpga_config,
                               {input->id(), input->version()},
                               input->count(), {.prefix = false});
  ASSERT_NE(hit.block, nullptr);
  ASSERT_EQ(hit.block->rows(), input->count());
  for (int64_t i = 0; i < input->count(); ++i) {
    ASSERT_EQ(hit.block->values[static_cast<size_t>(i)],
              static_cast<uint16_t>(prefilter->result->GetInt16(i)))
        << "row " << i;
  }

  // A repeat is served from that block through the continuation.
  auto warm = scheduler.Execute(session, *input, qh);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->route, sched::Route::kCache);
  EXPECT_EQ(warm->hudf.stats.strategy, "fpga-cache");
  ExpectSameValues(*expected->result, *warm->hudf.result, "warm");
  // So is a plain scan of the prefix: one key, two patterns.
  auto plain = scheduler.Execute(session, *input, plan->fpga_pattern);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(plain->route, sched::Route::kCache);
  ExpectSameValues(*prefilter->result, *plain->hudf.result, "plain prefix");
}

TEST(SchedulerSplitTest, WithoutCostRoutingTheSplitRunsOnTheDevice) {
  Hal hal(SmallHal(/*max_chars=*/24));
  auto input = AddressColumn(&hal, 2'000);
  const std::string qh = QueryPattern(EvalQuery::kQH);
  sched::QueryScheduler::Options options;
  options.cost_routing = false;
  options.result_cache = true;
  sched::QueryScheduler scheduler(&hal, options);
  sched::Session* session = scheduler.CreateSession();
  for (int round = 0; round < 2; ++round) {
    // Round 1 appends rows: the earlier prefix block serves the first
    // rows and the device scans only the tail, resumed over all of them.
    auto expected = ExecuteHybrid(&hal, *input, qh);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto result = scheduler.Execute(session, *input, qh);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->route, sched::Route::kFpga);
    EXPECT_EQ(result->hudf.stats.strategy,
              round == 0 ? "fpga" : "fpga+cache_prefix");
    ExpectSameValues(*expected->result, *result->hudf.result,
                     "round " + std::to_string(round));
    ASSERT_TRUE(input->AppendString("Strasse 81234 delivery").ok());
    ASSERT_TRUE(input->AppendString("Str. 85555 pickup").ok());
  }
  EXPECT_EQ(scheduler.result_cache()->partial_hits(), 1);
}

TEST(SchedulerSplitTest, ACachedSplitIsHostWorkInItsWave) {
  // A split's exact hit still resumes its candidates on the host, so it
  // is no zero-cost grant: deficit round-robin hands it to the CPU pool
  // in the same wave as the other sessions' scans, instead of a wave of
  // cache hits alone that leaves them queued.
  Hal hal(SmallHal(/*max_chars=*/24));
  auto small = AddressColumn(&hal, 200);
  auto other = AddressColumn(&hal, 2'000);
  const std::string qh = QueryPattern(EvalQuery::kQH);
  auto expected = ExecuteHybrid(&hal, *small, qh);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  sched::QueryScheduler::Options options;
  options.cost_routing = false;
  options.result_cache = true;
  sched::QueryScheduler scheduler(&hal, options);
  sched::Session* a = scheduler.CreateSession();
  sched::Session* b = scheduler.CreateSession();
  ASSERT_TRUE(scheduler.Execute(a, *small, qh).ok());  // caches the prefix

  auto scan = scheduler.Submit(b, *other, "Strasse");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  auto hit = scheduler.Submit(a, *small, qh);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  auto served = scheduler.Wait(*hit);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->route, sched::Route::kCache);
  EXPECT_EQ(served->hudf.stats.strategy, "fpga-cache");
  EXPECT_EQ(served->hudf.stats.rows_scanned, 0);
  ExpectSameValues(*expected->result, *served->hudf.result, "hit");
  EXPECT_EQ(a->cache_served(), 1);
  EXPECT_EQ(scheduler.queue_depth(), 0) << "the scan rode the same wave";
  auto scanned = scheduler.Wait(*scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_EQ(scanned->route, sched::Route::kFpga);
}

TEST(SchedulerSplitTest, RepeatedAdmissionsPlanOnce) {
  // The ProgramCache keeps an over-capacity pattern's plan under (pattern,
  // options): later admissions neither compile the full pattern nor plan
  // it again, and every one returns ExecuteHybrid's values.
  Hal hal(SmallHal(/*max_chars=*/24));
  auto input = AddressColumn(&hal, 2'000);
  const std::string qh = QueryPattern(EvalQuery::kQH);
  auto expected = ExecuteHybrid(&hal, *input, qh);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  sched::QueryScheduler::Options options;
  options.cost_routing = false;
  sched::QueryScheduler scheduler(&hal, options);
  sched::Session* session = scheduler.CreateSession();
  constexpr int kSubmissions = 5;
  std::vector<sched::QueryTicket> tickets;
  for (int i = 0; i < kSubmissions; ++i) {
    auto ticket = scheduler.Submit(session, *input, qh);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(*ticket));
  }
  for (const sched::QueryTicket& ticket : tickets) {
    auto result = scheduler.Wait(ticket);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->route, sched::Route::kFpga);
    ExpectSameValues(*expected->result, *result->hudf.result, "submission");
  }
  // The first admission planned (one miss) and compiled the prefix (one
  // miss); the others hit the plan.
  const sched::ProgramCache& cache = scheduler.program_cache();
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), kSubmissions - 1);

  // The verdict that a pattern has no device part is kept the same way.
  const std::string anchored = "^" + qh;
  for (int i = 0; i < kSubmissions; ++i) {
    auto result = scheduler.Execute(session, *input, anchored);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->route, sched::Route::kCpuDfa);
  }
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.hits(), 2 * kSubmissions - 2);
}

TEST(SchedulerSplitTest, ThePrefixProgramIsThePlansConfig) {
  // The scheduler compiles a split's prefix by its rendered pattern at
  // admission. The rendering compiles to the plan's own config bytes, so
  // the scheduler's and the hybrid executor's prefix blocks share one key.
  Hal hal(SmallHal(/*max_chars=*/24));
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("Strasse 81234 delivery").ok());
  const std::string q2 = QueryPattern(EvalQuery::kQ2);
  CompileOptions folded;
  folded.case_insensitive = true;
  for (const std::string& pattern :
       {QueryPattern(EvalQuery::kQH), q2 + ".*4 delivery", q2 + ".*[a-z]{130}",
        std::string("Berner.*Strasse.*back door please")}) {
    for (const CompileOptions& options : {CompileOptions{}, folded}) {
      const std::string label =
          pattern + (options.case_insensitive ? " (folded)" : "");
      auto plan = PlanHybrid(pattern, hal.device_config(), options);
      ASSERT_TRUE(plan.ok()) << label;
      ASSERT_EQ(plan->strategy, HybridStrategy::kHybrid) << label;
      sched::QueryScheduler scheduler(&hal);
      auto result =
          scheduler.Execute(scheduler.CreateSession(), input, pattern, options);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      sched::ProgramCache& cache = scheduler.program_cache();
      const int64_t misses = cache.misses();
      auto program = cache.GetOrCompile(plan->fpga_pattern, plan->options);
      ASSERT_TRUE(program.ok()) << label;
      EXPECT_EQ(cache.misses(), misses) << label << ": compiled at admission";
      EXPECT_EQ((*program)->config.vector.bytes(),
                plan->fpga_config->vector.bytes())
          << label;
    }
  }
}

}  // namespace
}  // namespace doppio
