#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "db/column_store.h"
#include "hal/hal.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

class ColumnStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnStoreEngine::Options options;
    options.num_threads = 4;
    engine_ = std::make_unique<ColumnStoreEngine>(options);

    AddressDataOptions data;
    data.num_records = 50'000;
    data.selectivity = 0.2;
    auto table = GenerateAddressTable(data, "address_table");
    ASSERT_TRUE(table.ok());
    strings_ = (*table)->GetColumn("address_string");
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(*table)).ok());
  }

  int64_t CountBits(const std::vector<uint8_t>& bits) {
    int64_t n = 0;
    for (uint8_t b : bits) n += b;
    return n;
  }

  std::unique_ptr<ColumnStoreEngine> engine_;
  Bat* strings_ = nullptr;
};

TEST_F(ColumnStoreTest, LikeSelectivityNearTarget) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kLike;
  spec.pattern = "%Strasse%";
  QueryStats stats;
  auto bits = engine_->EvalStringFilter(*strings_, spec, &stats);
  ASSERT_TRUE(bits.ok());
  double sel =
      static_cast<double>(CountBits(*bits)) / strings_->count();
  EXPECT_NEAR(sel, 0.2, 0.02);
  EXPECT_EQ(stats.strategy, "like");
  EXPECT_GT(stats.database_seconds, 0.0);
}

TEST_F(ColumnStoreTest, RegexpAgreesWithLikeForQ1) {
  StringFilterSpec like;
  like.op = StringFilterSpec::Op::kLike;
  like.pattern = "%Strasse%";
  StringFilterSpec regexp;
  regexp.op = StringFilterSpec::Op::kRegexpLike;
  regexp.pattern = "Strasse";
  auto a = engine_->EvalStringFilter(*strings_, like, nullptr);
  auto b = engine_->EvalStringFilter(*strings_, regexp, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(ColumnStoreTest, NegationFlips) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kLike;
  spec.pattern = "%Strasse%";
  auto pos = engine_->EvalStringFilter(*strings_, spec, nullptr);
  spec.negated = true;
  auto neg = engine_->EvalStringFilter(*strings_, spec, nullptr);
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(CountBits(*pos) + CountBits(*neg), strings_->count());
}

TEST_F(ColumnStoreTest, SequentialPipeMatchesParallel) {
  ColumnStoreEngine::Options seq_options;
  seq_options.num_threads = 4;
  seq_options.sequential_pipe = true;
  ColumnStoreEngine sequential(seq_options);

  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kRegexpLike;
  spec.pattern = QueryPattern(EvalQuery::kQ2);
  auto parallel_bits = engine_->EvalStringFilter(*strings_, spec, nullptr);
  auto seq_bits = sequential.EvalStringFilter(*strings_, spec, nullptr);
  ASSERT_TRUE(parallel_bits.ok());
  ASSERT_TRUE(seq_bits.ok());
  EXPECT_EQ(*parallel_bits, *seq_bits);
  EXPECT_EQ(sequential.partitions(), 1);
  EXPECT_EQ(engine_->partitions(), 4);
}

TEST_F(ColumnStoreTest, ContainsRequiresIndex) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kContains;
  spec.pattern = "Strasse";
  EXPECT_FALSE(engine_->EvalStringFilter(*strings_, spec, nullptr).ok());

  ASSERT_TRUE(
      engine_->BuildContainsIndex("address_table", "address_string").ok());
  auto bits = engine_->EvalStringFilter(*strings_, spec, nullptr);
  ASSERT_TRUE(bits.ok());
  // CONTAINS is word-based; every LIKE %Strasse% row has the word.
  StringFilterSpec like;
  like.op = StringFilterSpec::Op::kLike;
  like.pattern = "%Strasse%";
  auto like_bits = engine_->EvalStringFilter(*strings_, like, nullptr);
  ASSERT_TRUE(like_bits.ok());
  EXPECT_EQ(CountBits(*bits), CountBits(*like_bits));
}

TEST_F(ColumnStoreTest, FpgaWithoutHalFails) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kRegexpFpga;
  spec.pattern = "Strasse";
  EXPECT_FALSE(engine_->EvalStringFilter(*strings_, spec, nullptr).ok());
}

TEST_F(ColumnStoreTest, AllFourQueriesHaveExpectedSelectivity) {
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    StringFilterSpec spec;
    spec.op = StringFilterSpec::Op::kRegexpLike;
    spec.pattern = QueryPattern(q);
    auto bits = engine_->EvalStringFilter(*strings_, spec, nullptr);
    ASSERT_TRUE(bits.ok()) << QueryName(q);
    double sel =
        static_cast<double>(CountBits(*bits)) / strings_->count();
    EXPECT_GT(sel, 0.1) << QueryName(q);
    EXPECT_LT(sel, 0.45) << QueryName(q);
  }
}

// Ingest/query epoch guard: an append racing a scan of the same column
// must fail typed (Overloaded) on one side instead of reallocating the
// BAT under the reader. Run under TSan, this is the regression test that
// the guard (not luck) serializes the two sides: any unguarded overlap
// is a data race on the column's heap.
TEST_F(ColumnStoreTest, ConcurrentAppendAndScanNeverRace) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kLike;
  spec.pattern = "%Strasse%";

  std::atomic<int> scans_ok{0}, scans_overloaded{0};
  std::atomic<int> appends_ok{0}, appends_overloaded{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto bits = engine_->EvalStringFilter(*strings_, spec, nullptr);
        if (bits.ok()) {
          scans_ok.fetch_add(1);
        } else if (bits.status().IsOverloaded()) {
          scans_overloaded.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    });
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        auto version = engine_->AppendToColumn(
            "address_table", "address_string", {"9 Neue Strasse|77777"});
        if (version.ok()) {
          appends_ok.fetch_add(1);
        } else if (version.status().IsOverloaded()) {
          appends_overloaded.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every operation either succeeded or was rejected typed — nothing
  // crashed, tore, or failed with an unexpected status.
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(scans_ok.load() + scans_overloaded.load(), 40);
  EXPECT_EQ(appends_ok.load() + appends_overloaded.load(), 40);

  // The column holds exactly the successfully appended rows.
  EXPECT_EQ(strings_->count(), 50'000 + appends_ok.load());

  // Quiesced, both sides succeed back to back and the scan sees the
  // appended rows.
  auto version = engine_->AppendToColumn("address_table", "address_string",
                                         {"10 Neue Strasse|77777"});
  ASSERT_TRUE(version.ok());
  auto bits = engine_->EvalStringFilter(*strings_, spec, nullptr);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(static_cast<int64_t>(bits->size()), strings_->count());
  EXPECT_EQ(bits->back(), 1);  // the appended row matches %Strasse%
}

// The HUDF result -> selection conversion, shared by resident and
// segmented scans.
class FpgaSelectionTest : public ::testing::Test {
 protected:
  FpgaSelectionTest() : hal_(HalOptions()), engine_(EngineOptions(&hal_)) {}

  static Hal::Options HalOptions() {
    Hal::Options options;
    options.shared_memory_bytes = 64 * kSharedPageBytes;
    options.functional_threads = 1;
    return options;
  }
  static ColumnStoreEngine::Options EngineOptions(Hal* hal) {
    ColumnStoreEngine::Options options;
    options.num_threads = 2;
    options.sequential_pipe = true;
    options.hal = hal;
    options.segment_target_bytes = 16 * 1024;
    return options;
  }

  Hal hal_;
  ColumnStoreEngine engine_;
};

TEST_F(FpgaSelectionTest, ZeroRowResultsSelectNothing) {
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kRegexpFpga;
  spec.pattern = "Strasse";
  Bat empty(ValueType::kString, hal_.bat_allocator());
  QueryStats stats;
  auto resident = engine_.EvalStringFilter(empty, spec, &stats);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  EXPECT_TRUE(resident->empty());
  EXPECT_EQ(stats.rows_matched, 0);

  ASSERT_TRUE(engine_.CreateSegmentedColumn("t", "empty").ok());
  auto segmented = engine_.EvalSegmentedFilter("t", "empty", spec, nullptr);
  ASSERT_TRUE(segmented.ok()) << segmented.status().ToString();
  EXPECT_TRUE(segmented->empty());
}

TEST_F(FpgaSelectionTest, NegatedFpgaAgreesOnResidentAndSegmented) {
  AddressDataOptions data;
  data.num_records = 3'000;
  data.selectivity = 0.3;
  auto table = GenerateAddressTable(data, "t", hal_.bat_allocator());
  ASSERT_TRUE(table.ok());
  const Bat* resident = (*table)->GetColumn("address_string");
  std::vector<std::string> rows;
  for (int64_t i = 0; i < resident->count(); ++i) {
    rows.emplace_back(resident->GetString(i));
  }
  ASSERT_TRUE(engine_.CreateSegmentedColumn("t", "addr").ok());
  ASSERT_TRUE(engine_.AppendToSegmented("t", "addr", rows, true).ok());

  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kRegexpFpga;
  spec.pattern = QueryPattern(EvalQuery::kQ2);
  auto plain = engine_.EvalStringFilter(*resident, spec, nullptr);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  spec.negated = true;
  QueryStats resident_stats;
  auto negated = engine_.EvalStringFilter(*resident, spec, &resident_stats);
  ASSERT_TRUE(negated.ok()) << negated.status().ToString();
  QueryStats segmented_stats;
  auto streamed =
      engine_.EvalSegmentedFilter("t", "addr", spec, &segmented_stats);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  ASSERT_EQ(negated->size(), rows.size());
  ASSERT_EQ(streamed->size(), rows.size());
  int64_t selected = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*negated)[i], (*streamed)[i]) << "row " << i;
    EXPECT_EQ((*negated)[i], 1 - (*plain)[i]) << "row " << i;
    selected += (*negated)[i];
  }
  EXPECT_GT(selected, 0);
  EXPECT_LT(selected, static_cast<int64_t>(rows.size()));
  EXPECT_EQ(resident_stats.rows_matched, selected);
  EXPECT_EQ(segmented_stats.rows_matched, selected);
}

}  // namespace
}  // namespace doppio
