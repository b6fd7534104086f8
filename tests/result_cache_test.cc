// The versioned match-result cache (docs/RESULT_CACHE.md): unit coverage
// of keying/LRU/guard/invalidation, frequency-aware admission and a
// concurrent hammer of it, the scheduler's cache-served route
// (bit-identity, zero-cost grants, admission snapshots, one miss per
// request), the saturation hazard regression across device-shard
// boundaries, the hybrid executor's pre-filter reuse, the executor's
// continuation stage over cached, device and host slices, one cache
// contract across every layer that scans through the executor, the
// ProgramCache evict-mid-wave accounting fix, and the ingest invalidation
// path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "db/column_store.h"
#include "db/hybrid_executor.h"
#include "db/hudf.h"
#include "hw/config_compiler.h"
#include "regex/dfa_matcher.h"
#include "sched/program_cache.h"
#include "sched/result_cache.h"
#include "sched/scheduler.h"
#include "store/pager.h"
#include "store/segmented_column.h"
#include "store/stream_executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

using sched::CachedResultBlock;
using sched::ProgramCache;
using sched::QueryScheduler;
using sched::QueryTicket;
using sched::ResultCache;
using sched::Route;
using sched::ScheduledResult;
using sched::Session;

/// Scoped environment override restoring the prior value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

Hal::Options TestHal(int num_devices = 1) {
  Hal::Options options;
  options.shared_memory_bytes = 256 * kSharedPageBytes;
  options.functional_threads = 1;
  options.num_devices = num_devices;
  return options;
}

void FillInput(Bat* input, int rows, int salt = 0) {
  for (int i = 0; i < rows; ++i) {
    switch ((i + salt) % 4) {
      case 0:
        ASSERT_TRUE(input->AppendString("7 Berner Strasse|61234").ok());
        break;
      case 1:
        ASSERT_TRUE(input->AppendString("12 Berner Gasse|61234").ok());
        break;
      case 2:
        ASSERT_TRUE(input->AppendString("1 Haupt Strasse|99999").ok());
        break;
      default:
        ASSERT_TRUE(input->AppendString("no address at all").ok());
        break;
    }
  }
}

/// Raw result column of the direct (schedulerless) partitioned path —
/// works on any pool width via the pooled entry point.
std::vector<int16_t> DirectResult(Hal* hal, const Bat& input,
                                  const std::string& pattern) {
  auto config = hal->CompileConfig(pattern);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  auto out = RegexpFpgaPartitionedPooled(hal, input, *config);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<int16_t> values(static_cast<size_t>(input.count()));
  for (int64_t i = 0; i < input.count(); ++i) {
    values[static_cast<size_t>(i)] = out->result->GetInt16(i);
  }
  return values;
}

void ExpectSameColumn(const std::vector<int16_t>& expected, const Bat& got) {
  ASSERT_EQ(static_cast<int64_t>(expected.size()), got.count());
  for (int64_t i = 0; i < got.count(); ++i) {
    EXPECT_EQ(got.GetInt16(i), expected[static_cast<size_t>(i)])
        << "row " << i;
  }
}

QueryScheduler::Options CacheOn() {
  QueryScheduler::Options options;
  options.cost_routing = false;
  options.result_cache = true;
  return options;
}

// --- ResultCache unit -------------------------------------------------------

TEST(ResultCacheTest, PutGetKeyedOnFingerprintColumnVersion) {
  ResultCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("fpA", 7, 1, {0, 5, 0, 9}, false));
  EXPECT_EQ(cache.size(), 1);

  auto block = cache.Get("fpA", 7, 1, 4);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->rows(), 4);
  EXPECT_EQ(block->rows_matched, 2);
  EXPECT_EQ(block->values[1], 5);
  EXPECT_EQ(cache.hits(), 1);

  // Every key component participates: other fingerprint, column or
  // version misses.
  EXPECT_EQ(cache.Get("fpB", 7, 1, 4), nullptr);
  EXPECT_EQ(cache.Get("fpA", 8, 1, 4), nullptr);
  EXPECT_EQ(cache.Get("fpA", 7, 2, 4), nullptr);
  EXPECT_EQ(cache.misses(), 3);
}

TEST(ResultCacheTest, RowExtentMismatchIsAMiss) {
  ResultCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("fp", 1, 1, {0, 5, 0, 9}, false));
  // A concurrent append between admission and execution changes the
  // admitted extent: the snapshot discipline must miss, never serve a
  // block of the wrong length.
  EXPECT_EQ(cache.Get("fp", 1, 1, 5), nullptr);
  EXPECT_EQ(cache.Get("fp", 1, 1, 3), nullptr);
  ASSERT_NE(cache.Get("fp", 1, 1, 4), nullptr);
}

TEST(ResultCacheTest, CompletenessGuardRefusesSaturatedAndDegraded) {
  ResultCache cache(1 << 20);
  // 65535 means "matched, true end truncated": replaying it as a complete
  // result (or seeding a pre-filter from it) would be wrong.
  EXPECT_FALSE(cache.Put("fp", 1, 1, {0, ResultCache::kSaturated}, false));
  // Degraded blocks mix kernel and software semantics.
  EXPECT_FALSE(cache.Put("fp", 1, 1, {0, 5}, /*degraded=*/true));
  // Empty blocks carry no information.
  EXPECT_FALSE(cache.Put("fp", 1, 1, {}, false));
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.incomplete_skipped(), 2);
  // 65534 is an exact (unsaturated) end position and is cacheable.
  EXPECT_TRUE(cache.Put("fp", 1, 1, {0, 65534}, false));
}

TEST(ResultCacheTest, LruEvictsUnderByteBudgetAndRefusesOversized) {
  // Each 4-row block charges 4*2 + 64 = 72 bytes; budget fits two.
  ResultCache cache(160);
  ASSERT_TRUE(cache.Put("a", 1, 1, {1, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("b", 1, 1, {2, 0, 0, 0}, false));
  EXPECT_EQ(cache.size(), 2);
  // Touch "a" so "b" is the LRU victim.
  ASSERT_NE(cache.Get("a", 1, 1, 4), nullptr);
  ASSERT_TRUE(cache.Put("c", 1, 1, {3, 0, 0, 0}, false));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.Get("b", 1, 1, 4), nullptr);
  ASSERT_NE(cache.Get("a", 1, 1, 4), nullptr);
  EXPECT_LE(cache.bytes(), 160);

  // A block larger than the whole budget is refused outright instead of
  // flushing everything else.
  std::vector<uint16_t> huge(200, 1);
  EXPECT_FALSE(cache.Put("huge", 1, 1, std::move(huge), false));
  EXPECT_EQ(cache.size(), 2);
}

// --- Frequency-aware admission ----------------------------------------------
//
// A lookup Get counts (a hit, or a miss with count_miss) adds one
// reference to (fingerprint, column). A Get of another version misses and
// counts without promoting anything, which is how these tests set counts.

/// Adds `n` references to (fingerprint, column) through counted misses.
void Reference(ResultCache* cache, const char* fingerprint, uint64_t column,
               int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(cache->Get(fingerprint, column, /*column_version=*/999, 4),
              nullptr);
  }
}

TEST(ResultCacheTest, AdmissionTiesAdmitInLruOrder) {
  // Each 4-row block charges 72 bytes; the budget fits two.
  ResultCache cache(160);
  ASSERT_TRUE(cache.Put("a", 1, 1, {1, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("b", 1, 1, {2, 0, 0, 0}, false));
  ASSERT_NE(cache.Get("a", 1, 1, 4), nullptr);  // "a": 1 reference
  ASSERT_NE(cache.Get("b", 1, 1, 4), nullptr);  // "b": 1, now MRU
  Reference(&cache, "c", 1, 1);
  // Equal counts: "c" evicts the LRU tail "a", exactly as LRU would.
  ASSERT_TRUE(cache.Put("c", 1, 1, {3, 0, 0, 0}, false));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.admission_rejects(), 0);
  Reference(&cache, "d", 1, 1);
  // "b" is now the tail; the order admission left is plain LRU's.
  ASSERT_TRUE(cache.Put("d", 1, 1, {4, 0, 0, 0}, false));
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_EQ(cache.Get("a", 1, 1, 4), nullptr);
  EXPECT_EQ(cache.Get("b", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("c", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("d", 1, 1, 4), nullptr);
  EXPECT_EQ(cache.admission_rejects(), 0);
}

TEST(ResultCacheTest, AdmissionRefusesABlockReferencedLessThanItsVictim) {
  ResultCache cache(160);
  ASSERT_TRUE(cache.Put("hot", 1, 1, {1, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("warm", 1, 1, {2, 0, 0, 0}, false));
  Reference(&cache, "hot", 1, 3);  // "hot" is the LRU tail, 3 references
  Reference(&cache, "cold", 1, 1);
  const int64_t bytes = cache.bytes();
  EXPECT_FALSE(cache.Put("cold", 1, 1, {3, 0, 0, 0}, false));
  EXPECT_EQ(cache.admission_rejects(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_NE(cache.Get("hot", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("warm", 1, 1, 4), nullptr);
  EXPECT_EQ(cache.Get("cold", 1, 1, 4), nullptr);  // "cold": 2
  // References count per (fingerprint, column): "cold" over another
  // column does not lift it past "hot"'s 4.
  Reference(&cache, "cold", 2, 5);
  EXPECT_FALSE(cache.Put("cold", 1, 1, {3, 0, 0, 0}, false));
  EXPECT_EQ(cache.admission_rejects(), 2);
}

TEST(ResultCacheTest, AdmissionComparesEveryVictimItNeeds) {
  // Three 4-row blocks fill the budget; a 40-row block (144 bytes) needs
  // the two at the LRU tail, and only those two.
  ResultCache cache(216);
  ASSERT_TRUE(cache.Put("a", 1, 1, {1, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("b", 1, 1, {2, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("c", 1, 1, {3, 0, 0, 0}, false));
  Reference(&cache, "a", 1, 1);
  Reference(&cache, "b", 1, 3);
  Reference(&cache, "c", 1, 10);  // not a victim: never compared
  Reference(&cache, "big", 1, 2);
  const std::vector<uint16_t> big(40, 7);
  // Above "a" but below the second victim "b".
  EXPECT_FALSE(cache.Put("big", 1, 1, big, false));
  EXPECT_EQ(cache.admission_rejects(), 1);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.size(), 3);
  Reference(&cache, "big", 1, 1);  // ties "b"
  ASSERT_TRUE(cache.Put("big", 1, 1, big, false));
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  EXPECT_EQ(cache.Get("a", 1, 1, 4), nullptr);
  EXPECT_EQ(cache.Get("b", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("c", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("big", 1, 1, 40), nullptr);
}

TEST(ResultCacheTest, HalvingLetsACooledOffPatternBeDisplaced) {
  ResultCache cache(100);  // one 4-row block
  ASSERT_TRUE(cache.Put("hot", 1, 1, {1, 0, 0, 0}, false));
  Reference(&cache, "hot", 1, 10);
  Reference(&cache, "cold", 1, 1);
  EXPECT_FALSE(cache.Put("cold", 1, 1, {2, 0, 0, 0}, false));
  // "hot" cools off: other lookups run four halving periods (10 -> 5 ->
  // 2 -> 1 -> 0), which clear "cold"'s one reference too.
  const int64_t period =
      ResultCache::kHalvingLookups * ResultCache::kMinHalvingEntries;
  for (int64_t i = 0; i < 4 * period; ++i) {
    ASSERT_EQ(cache.Get("other", 2, 1, 4), nullptr);
  }
  Reference(&cache, "cold", 1, 1);
  ASSERT_TRUE(cache.Put("cold", 1, 1, {2, 0, 0, 0}, false));
  EXPECT_EQ(cache.admission_rejects(), 1);
  EXPECT_EQ(cache.Get("hot", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("cold", 1, 1, 4), nullptr);
}

TEST(ResultCacheTest, RePuttingAnExistingKeyPromotesIt) {
  ResultCache cache(160);
  ASSERT_TRUE(cache.Put("a", 1, 1, {1, 0, 0, 0}, false));
  ASSERT_TRUE(cache.Put("b", 1, 1, {2, 0, 0, 0}, false));
  Reference(&cache, "b", 1, 5);
  // "a" is the tail; a re-put keeps its block, returns true and makes it
  // MRU, whatever the counts.
  ASSERT_TRUE(cache.Put("a", 1, 1, {1, 0, 0, 0}, false));
  EXPECT_EQ(cache.size(), 2);
  Reference(&cache, "c", 1, 5);
  ASSERT_TRUE(cache.Put("c", 1, 1, {3, 0, 0, 0}, false));
  EXPECT_EQ(cache.Get("b", 1, 1, 4), nullptr);
  EXPECT_NE(cache.Get("a", 1, 1, 4), nullptr);
  EXPECT_EQ(cache.admission_rejects(), 0);
}

TEST(ResultCacheTest, CompletenessGuardFiresBeforeAdmission) {
  ResultCache cache(100);
  ASSERT_TRUE(cache.Put("hot", 1, 1, {1, 0, 0, 0}, false));
  Reference(&cache, "hot", 1, 10);
  // Each of these admission would refuse too; the guard counts them.
  EXPECT_FALSE(
      cache.Put("cold", 1, 1, {1, ResultCache::kSaturated, 0, 0}, false));
  EXPECT_FALSE(cache.Put("cold", 1, 1, {1, 0, 0, 0}, /*degraded=*/true));
  EXPECT_FALSE(cache.Put("huge", 1, 1, std::vector<uint16_t>(200, 1),
                         /*degraded=*/true));
  EXPECT_EQ(cache.incomplete_skipped(), 3);
  EXPECT_EQ(cache.admission_rejects(), 0);
  EXPECT_NE(cache.Get("hot", 1, 1, 4), nullptr);
}

TEST(ResultCacheTest, EveryRefusedPutLeavesATrace) {
  ResultCache cache(160);
  EXPECT_FALSE(cache.Put("empty", 1, 1, {}, false));
  EXPECT_FALSE(cache.Put("huge", 1, 1, std::vector<uint16_t>(200, 1), false));
  EXPECT_EQ(cache.admission_rejects(), 2);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(ResultCacheTest, ConcurrentGetPutInvalidateKeepBudgetAndIndexes) {
  // Four threads hammer a budget of about eight blocks with lookups,
  // inserts and invalidations over 4 fingerprints x 4 columns. Each block's
  // values are a function of its key, so a served block is checked whole.
  constexpr int kThreads = 4;
  constexpr int kOps = 20'000;
  constexpr uint64_t kColumns = 4;
  ResultCache cache(8 * (16 * 2 + 64));
  const char* const fingerprints[] = {"fa", "fb", "fc", "fd"};
  auto rows_of = [](int f) { return 8 + 8 * f; };  // 8..32 rows
  auto values_of = [&](int f, uint64_t column) {
    return std::vector<uint16_t>(static_cast<size_t>(rows_of(f)),
                                 static_cast<uint16_t>(f * 16 + column + 1));
  };
  std::atomic<int64_t> over_budget{0};
  std::atomic<int64_t> wrong_blocks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      for (int op = 0; op < kOps; ++op) {
        const uint64_t r = next();
        const int f = static_cast<int>(r % 4);
        const uint64_t column = (r >> 8) % kColumns;
        switch ((r >> 16) % 8) {
          case 0:
            cache.InvalidateColumn(column);
            break;
          case 1:
          case 2:
            cache.Put(fingerprints[f], column, 1, values_of(f, column),
                      false);
            break;
          default: {
            auto block = cache.Get(fingerprints[f], column, 1, rows_of(f));
            if (block != nullptr && block->values != values_of(f, column)) {
              wrong_blocks.fetch_add(1);
            }
          }
        }
        if (cache.bytes() > cache.max_bytes()) over_budget.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(over_budget.load(), 0);
  EXPECT_EQ(wrong_blocks.load(), 0);
  EXPECT_GT(cache.evictions(), cache.invalidations());  // budget pressure
  // Every resident entry is reachable through its column's index, and the
  // byte count matches what is resident.
  for (uint64_t column = 0; column < kColumns; ++column) {
    cache.InvalidateColumn(column);
  }
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(ResultCacheTest, InvalidateColumnDropsAllItsVersionsOnly) {
  ResultCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("fpA", 1, 1, {1, 0}, false));
  ASSERT_TRUE(cache.Put("fpA", 1, 2, {1, 0}, false));
  ASSERT_TRUE(cache.Put("fpB", 1, 2, {2, 0}, false));
  ASSERT_TRUE(cache.Put("fpA", 2, 1, {3, 0}, false));
  cache.InvalidateColumn(1);
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.invalidations(), 3);
  EXPECT_EQ(cache.Get("fpA", 1, 1, 2), nullptr);
  EXPECT_EQ(cache.Get("fpB", 1, 2, 2), nullptr);
  ASSERT_NE(cache.Get("fpA", 2, 1, 2), nullptr);
}

TEST(ResultCacheTest, GetPrefixReturnsLargestStrictlySmallerBlock) {
  ResultCache cache(1 << 20);
  ASSERT_TRUE(cache.Put("fp", 7, 1, {0, 5}, false));               // 2 rows
  ASSERT_TRUE(cache.Put("fp", 7, 2, {0, 5, 9, 0}, false));         // 4 rows
  ASSERT_TRUE(cache.Put("other", 7, 3, {0, 5, 9, 0, 1, 2}, false));
  ASSERT_TRUE(cache.Put("fp", 8, 2, {0, 5, 9, 0, 1}, false));

  // Largest strictly-smaller extent for (fp, column 7) wins: the 4-row
  // block, not the 2-row one — and never another fingerprint or column.
  auto block = cache.GetPrefix("fp", 7, 6);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->rows(), 4);
  EXPECT_EQ(block->values[2], 9);
  EXPECT_EQ(cache.partial_hits(), 1);

  // "Strictly below": an equal extent is Get()'s exact-hit territory.
  auto equal = cache.GetPrefix("fp", 7, 4);
  ASSERT_NE(equal, nullptr);
  EXPECT_EQ(equal->rows(), 2);
  EXPECT_EQ(cache.GetPrefix("fp", 7, 2), nullptr);
  EXPECT_EQ(cache.GetPrefix("fp", 99, 10), nullptr);

  // A fruitless probe is NOT a miss — Get() already counted that.
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.partial_hits(), 2);
}

// --- Scheduler integration --------------------------------------------------

TEST(SchedulerCacheTest, RepeatQueryServedFromCacheBitIdentical) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  QueryScheduler scheduler(&hal, CacheOn());
  ASSERT_NE(scheduler.result_cache(), nullptr);
  Session* session = scheduler.CreateSession();

  auto cold = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->route, Route::kFpga);
  ExpectSameColumn(expected, *cold->hudf.result);
  EXPECT_EQ(scheduler.result_cache()->size(), 1);

  auto warm = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->route, Route::kCache);
  EXPECT_EQ(warm->hudf.stats.strategy, "fpga-cache");
  // The cached serve is an engine-free replay: no virtual hardware time.
  EXPECT_EQ(warm->hudf.stats.hw_seconds, 0.0);
  ExpectSameColumn(expected, *warm->hudf.result);
  EXPECT_EQ(session->cache_served(), 1);
  EXPECT_GE(scheduler.result_cache()->hits(), 1);
  EXPECT_GT(scheduler.result_cache()->bytes_saved(), 0);
}

TEST(SchedulerCacheTest, CacheIsOffByDefault) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 32);
  QueryScheduler::Options options;
  options.cost_routing = false;
  QueryScheduler scheduler(&hal, options);
  EXPECT_EQ(scheduler.result_cache(), nullptr);
  Session* session = scheduler.CreateSession();
  for (int repeat = 0; repeat < 2; ++repeat) {
    auto result = scheduler.Execute(session, input, "Strasse");
    ASSERT_TRUE(result.ok());
    // Without the cache every repeat rescans: the paper's byte-identical
    // baseline behavior.
    EXPECT_EQ(result->route, Route::kFpga);
  }
  EXPECT_EQ(session->cache_served(), 0);
}

TEST(SchedulerCacheTest, AppendBumpsVersionAndInvalidatesEntries) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 48);

  QueryScheduler scheduler(&hal, CacheOn());
  Session* session = scheduler.CreateSession();
  ASSERT_TRUE(scheduler.Execute(session, input, "Strasse").ok());
  const uint64_t v_before = input.version();

  // Ingest: the version bump makes the cached entry unreachable even
  // before any explicit invalidation.
  ASSERT_TRUE(input.AppendString("55 Neue Strasse|80001").ok());
  EXPECT_GT(input.version(), v_before);

  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");
  auto after = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after->route, Route::kCache);
  ExpectSameColumn(expected, *after->hudf.result);

  // The post-append scan cached under the new version: repeat hits.
  auto warm = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->route, Route::kCache);
  ExpectSameColumn(expected, *warm->hudf.result);
}

TEST(SchedulerCacheTest, AppendedTailServedFromCachedPrefix) {
  // Partial-extent reuse: after ingest grows a cached column, the rescan
  // pays the device only for the appended tail — the prefix rows replay
  // from the pre-append block, and the merged full-extent result is
  // cached under the current version so the NEXT repeat is an exact hit.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);

  QueryScheduler scheduler(&hal, CacheOn());
  Session* session = scheduler.CreateSession();
  auto cold = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->route, Route::kFpga);
  ASSERT_EQ(scheduler.result_cache()->size(), 1);

  ASSERT_TRUE(input.AppendString("55 Neue Strasse|80001").ok());
  ASSERT_TRUE(input.AppendString("no match here").ok());
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  auto tail = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->route, Route::kFpga);
  EXPECT_EQ(tail->hudf.stats.strategy, "fpga+cache_prefix");
  ExpectSameColumn(expected, *tail->hudf.result);
  // The stitched result reports the merged match count; only the tail's
  // two rows were scanned.
  EXPECT_EQ(tail->hudf.stats.rows_scanned, 2);
  EXPECT_EQ(scheduler.result_cache()->partial_hits(), 1);

  // The merged block was re-cached under the post-append version: the
  // third scan is an exact engine-free hit.
  auto warm = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->route, Route::kCache);
  EXPECT_EQ(warm->hudf.stats.strategy, "fpga-cache");
  ExpectSameColumn(expected, *warm->hudf.result);
}

TEST(SchedulerCacheTest, CpuRoutedTailReusesCachedPrefix) {
  // The CPU program route honors the same prefix contract: the pool
  // worker scans only [prefix rows, admitted rows) and stitches the
  // cached prefix in front, bit-identical to a full rescan.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 48);  // under cpu_route_max_rows: routes to the host

  QueryScheduler::Options options;
  options.result_cache = true;  // cost_routing stays on
  QueryScheduler scheduler(&hal, options);
  Session* session = scheduler.CreateSession();

  auto cold = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->route, Route::kCpuProgram);
  ASSERT_EQ(scheduler.result_cache()->size(), 1);

  ASSERT_TRUE(input.AppendString("55 Neue Strasse|80001").ok());
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  auto tail = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->route, Route::kCpuProgram);
  EXPECT_EQ(tail->hudf.stats.strategy, "sched_cpu+cache_prefix");
  ExpectSameColumn(expected, *tail->hudf.result);
  EXPECT_EQ(scheduler.result_cache()->partial_hits(), 1);
}

TEST(SchedulerCacheTest, SaturatedRowsNeverCachedAcrossShardCounts) {
  // Satellite hazard audit (docs/RESULT_CACHE.md): every kernel reports
  // min(first-match-end, 65535), so a saturated lane is truncated
  // evidence. The completeness guard must keep such blocks out of the
  // cache on EVERY pool width — a cached replay or pre-filter seeded from
  // one would silently drop the truncation.
  const std::string tail = "Strasse";
  for (int devices : {1, 2, 4}) {
    Hal hal(TestHal(devices));
    Bat input(ValueType::kString, hal.bat_allocator());
    // Match ends at exactly 65534 (exact), 65535 (saturated boundary) and
    // 65536 (saturated past the lane) — plus padding so the rows cross
    // slice/shard boundaries.
    for (size_t len : {size_t{65534}, size_t{65535}, size_t{65536}}) {
      std::string s(len - tail.size(), 'x');
      s += tail;
      ASSERT_TRUE(input.AppendString(s).ok());
    }
    FillInput(&input, 61);
    const std::vector<int16_t> expected =
        DirectResult(&hal, input, "Strasse");

    QueryScheduler scheduler(&hal, CacheOn());
    Session* session = scheduler.CreateSession();
    for (int repeat = 0; repeat < 2; ++repeat) {
      auto result = scheduler.Execute(session, input, "Strasse");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // Both runs rescan: the guard refused the saturated block.
      EXPECT_NE(result->route, Route::kCache)
          << devices << " devices, repeat " << repeat;
      ExpectSameColumn(expected, *result->hudf.result);
      EXPECT_EQ(static_cast<uint16_t>(result->hudf.result->GetInt16(1)),
                65535u);
      EXPECT_EQ(static_cast<uint16_t>(result->hudf.result->GetInt16(2)),
                65535u);
    }
    EXPECT_EQ(scheduler.result_cache()->size(), 0);
    EXPECT_GE(scheduler.result_cache()->incomplete_skipped(), 1);
    EXPECT_EQ(session->cache_served(), 0);
  }
}

TEST(SchedulerCacheTest, AdmissionSnapshotBoundsTheScan) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 40);

  QueryScheduler scheduler(&hal, CacheOn());
  Session* session = scheduler.CreateSession();

  const int64_t admitted_rows = input.count();
  auto ticket = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(ticket.ok());
  // Rows appended after admission must not be observed by the admitted
  // query — it runs over its snapshot extent.
  ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
  ASSERT_TRUE(input.AppendString("8 Berner Strasse|61234").ok());

  auto result = scheduler.Wait(*ticket);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->hudf.result->count(), admitted_rows);
  EXPECT_EQ(result->hudf.stats.rows_scanned, admitted_rows);

  // A fresh query sees the grown column in full.
  auto grown = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->hudf.result->count(), input.count());
}

TEST(SchedulerCacheTest, ForcedBackendSweepIsByteIdentical) {
  // DOPPIO_FORCE_BACKEND must not change what a cache-served repeat
  // returns: scalar, simd and fpga runs cache and serve the same bytes.
  Hal reference_hal(TestHal());
  Bat reference(ValueType::kString, reference_hal.bat_allocator());
  FillInput(&reference, 64);
  const std::vector<int16_t> expected =
      DirectResult(&reference_hal, reference, "Strasse");

  for (const char* backend : {"scalar", "simd", "fpga"}) {
    SCOPED_TRACE(backend);
    ScopedEnv env("DOPPIO_FORCE_BACKEND", backend);
    Hal hal(TestHal());
    Bat input(ValueType::kString, hal.bat_allocator());
    FillInput(&input, 64);
    QueryScheduler scheduler(&hal, CacheOn());
    Session* session = scheduler.CreateSession();

    auto cold = scheduler.Execute(session, input, "Strasse");
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    ExpectSameColumn(expected, *cold->hudf.result);

    auto warm = scheduler.Execute(session, input, "Strasse");
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm->route, Route::kCache);
    ExpectSameColumn(expected, *warm->hudf.result);
  }
}

TEST(SchedulerCacheTest, SetCompiledMembersCacheOrderInsensitively) {
  // A set-compiled wave demuxes per-member blocks that are bit-identical
  // to solo scans, each cached under its own program fingerprint — so a
  // repeat of the same patterns in ANY order is served from cache.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);
  const std::vector<int16_t> strasse = DirectResult(&hal, input, "Strasse");
  const std::vector<int16_t> gasse = DirectResult(&hal, input, "Gasse");

  QueryScheduler::Options options = CacheOn();
  options.set_compilation = true;
  QueryScheduler scheduler(&hal, options);
  Session* a = scheduler.CreateSession();
  Session* b = scheduler.CreateSession();

  auto t1 = scheduler.Submit(a, input, "Strasse");
  auto t2 = scheduler.Submit(b, input, "Gasse");
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto r1 = scheduler.Wait(*t1);
  auto r2 = scheduler.Wait(*t2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ExpectSameColumn(strasse, *r1->hudf.result);
  ExpectSameColumn(gasse, *r2->hudf.result);

  // Reversed submission order: both members hit the same entries the
  // set wave filled.
  auto t3 = scheduler.Submit(b, input, "Gasse");
  auto t4 = scheduler.Submit(a, input, "Strasse");
  ASSERT_TRUE(t3.ok() && t4.ok());
  auto r3 = scheduler.Wait(*t3);
  auto r4 = scheduler.Wait(*t4);
  ASSERT_TRUE(r3.ok() && r4.ok());
  EXPECT_EQ(r3->route, Route::kCache);
  EXPECT_EQ(r4->route, Route::kCache);
  ExpectSameColumn(gasse, *r3->hudf.result);
  ExpectSameColumn(strasse, *r4->hudf.result);
}

TEST(SchedulerCacheTest, QueuedRequestCountsOneMiss) {
  // Every pick re-probes each queued head for an exact block, so a request
  // that waits out several waves can still hit one inserted meanwhile;
  // only its first probe counts a miss.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);
  QueryScheduler::Options options = CacheOn();
  options.max_batch_width = 1;  // one request per wave
  QueryScheduler scheduler(&hal, options);
  std::vector<Session*> sessions;
  for (int i = 0; i < 3; ++i) sessions.push_back(scheduler.CreateSession());

  auto run = [&](const std::vector<std::string>& patterns) {
    std::vector<QueryTicket> tickets;
    for (size_t i = 0; i < patterns.size(); ++i) {
      auto ticket = scheduler.Submit(sessions[i], input, patterns[i]);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      tickets.push_back(*ticket);
    }
    for (const QueryTicket& ticket : tickets) {
      ASSERT_TRUE(scheduler.Wait(ticket).ok());
    }
  };
  // Three cold patterns run in three waves: probed 3 + 2 + 1 times.
  run({"Strasse", "Gasse", "Berner"});
  EXPECT_EQ(scheduler.result_cache()->misses(), 3);
  EXPECT_EQ(scheduler.result_cache()->hits(), 0);
  // A repeat hits; the two new patterns miss once each.
  run({"Strasse", "Haupt", "address"});
  EXPECT_EQ(scheduler.result_cache()->misses(), 5);
  EXPECT_EQ(scheduler.result_cache()->hits(), 1);
}

// --- Hybrid pre-filter reuse ------------------------------------------------

TEST(HybridCacheTest, ExactRepeatServedAsFpgaCache) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  ResultCache cache(1 << 20);
  auto cold = ExecuteHybrid(&hal, input, "Strasse", {}, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ExpectSameColumn(expected, *cold->result);
  EXPECT_EQ(cache.size(), 1);

  auto warm = ExecuteHybrid(&hal, input, "Strasse", {}, &cache);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.strategy, "fpga-cache");
  ExpectSameColumn(expected, *warm->result);
  EXPECT_GE(cache.hits(), 1);
}

TEST(HybridCacheTest, CachedCoarserScanSubsumesRefiningPattern) {
  // The pre-filter subsumption rule: "Berner" is a '.*'-cut prefix of
  // "Berner.*Strasse", so its cached (complete) scan is a candidate set
  // for the full pattern — zero rows are proven non-matches, candidate
  // rows refine on the host backend with device Match semantics.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 96);
  const std::vector<int16_t> expected =
      DirectResult(&hal, input, "Berner.*Strasse");

  ResultCache cache(1 << 20);
  // Seed the coarser scan.
  auto coarse = ExecuteHybrid(&hal, input, "Berner", {}, &cache);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  ASSERT_EQ(cache.size(), 1);

  auto refined =
      ExecuteHybrid(&hal, input, "Berner.*Strasse", {}, &cache);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(refined->stats.strategy, "fpga+cache_prefilter");
  ExpectSameColumn(expected, *refined->result);
  EXPECT_EQ(cache.prefilter_uses(), 1);
  EXPECT_GT(cache.bytes_saved(), 0);

  // The refined block was cached under the full pattern: an exact repeat
  // now serves straight from cache.
  auto warm =
      ExecuteHybrid(&hal, input, "Berner.*Strasse", {}, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.strategy, "fpga-cache");
  ExpectSameColumn(expected, *warm->result);
}

TEST(HybridCacheTest, AppendedTailReusesCachedPrefixExtent) {
  // Partial-extent reuse on the schedulerless hybrid path: a pre-append
  // block serves the prefix rows and the device scans only the appended
  // tail, stitched bit-identical to the full rescan.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);

  ResultCache cache(1 << 20);
  auto cold = ExecuteHybrid(&hal, input, "Strasse", {}, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cache.size(), 1);

  ASSERT_TRUE(input.AppendString("55 Neue Strasse|80001").ok());
  ASSERT_TRUE(input.AppendString("nothing to see").ok());
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  auto tail = ExecuteHybrid(&hal, input, "Strasse", {}, &cache);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail->stats.strategy, "fpga+cache_prefix");
  ExpectSameColumn(expected, *tail->result);
  EXPECT_EQ(cache.partial_hits(), 1);
  // Only the tail hit the device.
  EXPECT_EQ(tail->stats.rows_scanned, 2);

  // The merged block went back into the cache under the new version.
  auto warm = ExecuteHybrid(&hal, input, "Strasse", {}, &cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.strategy, "fpga-cache");
  ExpectSameColumn(expected, *warm->result);
}

TEST(HybridCacheTest, HybridPlanReusesCachedPrefixWithoutOffload) {
  // An over-capacity pattern splits at '.*'; a cached prefix scan
  // replaces the device pre-filter entirely while the CPU post-process
  // (and therefore the final bytes) stays identical.
  Hal::Options small = TestHal();
  small.device.max_chars = 24;  // QH's prefix fits, the full QH does not
  Hal hal(small);
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 64; ++i) {
    switch (i % 3) {
      case 0:
        ASSERT_TRUE(
            input.AppendString("7 Berner Strasse|81234 delivery note").ok());
        break;
      case 1:
        ASSERT_TRUE(input.AppendString("7 Berner Strasse|81234").ok());
        break;
      default:
        ASSERT_TRUE(input.AppendString("no address at all").ok());
        break;
    }
  }
  const std::string pattern = QueryPattern(EvalQuery::kQH);

  ResultCache cache(1 << 20);
  auto cold = ExecuteHybrid(&hal, input, pattern, {}, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold->strategy, HybridStrategy::kHybrid);
  EXPECT_EQ(cold->stats.strategy, "hybrid");
  ASSERT_EQ(cache.size(), 1);  // the prefix scan

  auto warm = ExecuteHybrid(&hal, input, pattern, {}, &cache);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.strategy, "hybrid+cache_prefilter");
  EXPECT_GE(cache.prefilter_uses(), 1);
  ASSERT_EQ(warm->result->count(), cold->result->count());
  for (int64_t i = 0; i < cold->result->count(); ++i) {
    EXPECT_EQ(warm->result->GetInt16(i), cold->result->GetInt16(i))
        << "row " << i;
  }
}

// --- The continuation stage ------------------------------------------------

/// A cached prefix block over the values of `prefix` in rows [first,
/// first + rows): what a complete earlier scan of the prefix left behind.
std::shared_ptr<CachedResultBlock> BlockOf(const Bat& prefix, int64_t first,
                                           int64_t rows) {
  auto block = std::make_shared<CachedResultBlock>();
  for (int64_t row = first; row < first + rows; ++row) {
    block->values.push_back(static_cast<uint16_t>(prefix.GetInt16(row)));
    block->rows_matched += block->values.back() != 0;
  }
  return block;
}

TEST(ContinuationTest, CachedPrefixBlockAndFreshSlicesResumeToTheOracle) {
  // A split's values from every slice source: a cached prefix block, a
  // device slice and a host slice, each resumed by the executor's
  // continuation stage. Every row equals the unsplit pattern's device
  // value, the DFA oracle's min(end, 65535).
  Hal::Options options = TestHal();
  options.device.max_chars = 10;  // "Strasse" fits, the whole does not
  Hal hal(options);
  const std::string pattern = "Strasse.*delivery";
  auto plan = PlanHybrid(pattern, hal.device_config());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->strategy, HybridStrategy::kHybrid);
  ASSERT_NE(plan->cpu_suffix, nullptr);

  const std::string far(65'600, 'x');  // pushes an end past 65535
  const std::vector<std::string> rows = {
      // Served by the cached block, rows [0, 6).
      "delivery to Strasse",          // the suffix occurs only before e
      "Strasse, then delivery",       // only after e
      "Strasse",                      // e at the string's end
      "Strassedelivery",              // the suffix starts at e
      "",
      "Strasse " + std::string(40'000, 'x') + "delivery",  // past 32767
      // A device slice, rows [6, 9): the boundary at 6 splits a pair of
      // candidates.
      "Strasse delivery",
      "no address at all",
      far + "Strasse delivery",  // a fresh scan's saturated e
      // A host slice, rows [9, 12).
      "Strasse " + far + "delivery",  // the tail's end saturates
      far + "Strasse pickup",         // saturated e, no full match
      "Strasse, Strasse and delivery",
  };
  constexpr int64_t kCachedRows = 6;
  constexpr int64_t kHostFirst = 9;
  Bat input(ValueType::kString, hal.bat_allocator());
  for (const std::string& row : rows) {
    ASSERT_TRUE(input.AppendString(row).ok());
  }
  const int64_t n = input.count();
  auto prefix = RegexpHost(hal.device_config(), input, *plan->fpga_config);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  ASSERT_EQ(static_cast<uint16_t>(prefix->result->GetInt16(8)), 65535u);

  ScanPlan scan;
  scan.hal = &hal;
  ScanQuery& query = scan.queries.emplace_back();
  ASSERT_TRUE(query.SetView(input).ok());
  auto result = ZeroedInt16Bat(n, hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  query.result = result->get();
  query.config = &*plan->fpga_config;
  const ScanContinuation continuation = ContinuationOf(*plan);
  query.continuation = &continuation;
  query.route = "split";
  query.slices.push_back({SliceSource::kCached, 0, kCachedRows,
                          BlockOf(*prefix->result, 0, kCachedRows)});
  query.AddDeviceSlices(kCachedRows, kHostFirst, 1);
  query.slices.push_back(
      {SliceSource::kHost, kHostFirst, n - kHostFirst, nullptr});
  ASSERT_TRUE(ExecuteScanPlan(&scan).ok());

  auto oracle = DfaMatcher::Compile(pattern);
  ASSERT_TRUE(oracle.ok());
  int64_t matched = 0;
  int64_t candidates = 0;
  for (int64_t row = 0; row < n; ++row) {
    const MatchResult m = (*oracle)->Find(input.GetString(row));
    const uint16_t want =
        m.matched ? static_cast<uint16_t>(std::min<int32_t>(m.end, 65535))
                  : uint16_t{0};
    EXPECT_EQ(static_cast<uint16_t>((*result)->GetInt16(row)), want)
        << "row " << row;
    matched += want != 0;
    candidates += prefix->result->GetInt16(row) != 0;
  }
  EXPECT_EQ(static_cast<uint16_t>((*result)->GetInt16(5)), 40'016u);
  EXPECT_EQ(query.resumed, candidates);
  EXPECT_EQ(query.stats.rows_matched, matched);
  // Resumed rows do not count as scanned.
  EXPECT_EQ(query.stats.rows_scanned, n - kCachedRows);
  EXPECT_EQ(query.stats.strategy, "split+cache_prefix");
}

TEST(ContinuationTest, BlocksMustCoverTheirSliceExactly) {
  // A cached block is served only over exactly the rows it holds: a block
  // of another extent fails the plan instead of serving rows it does not
  // hold.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 4);
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto three_rows = std::make_shared<CachedResultBlock>();
  three_rows->values = {7, 0, 15};
  three_rows->rows_matched = 2;
  ScanPlan plan;
  plan.device = &hal.device_config();
  ScanQuery& query = plan.queries.emplace_back();
  ASSERT_TRUE(query.SetView(input).ok());
  auto result = ZeroedInt16Bat(input.count());
  ASSERT_TRUE(result.ok());
  query.result = result->get();
  query.config = &*config;
  query.slices.push_back({SliceSource::kCached, 0, input.count(), three_rows});
  EXPECT_EQ(ExecuteScanPlan(&plan).code(), StatusCode::kInternal);
}

// --- One cache contract across layers ---------------------------------------
//
// Every layer that scans through the result cache must return the values
// of an uncached direct scan, keep its strategy spelling, report the rows
// it actually scanned (cached rows do not count), and leave behind a
// block equal to what it computed. One column, one program.

constexpr char kProgram[] = "Berner.*Strasse";
constexpr char kCoarse[] = "Berner";  // a '.*'-cut prefix of kProgram
// 29 character matchers, over the device's 24: planned as kProgram's
// device pre-filter plus a CPU post-process.
constexpr char kSplit[] = "Berner.*Strasse.*back door please";

std::vector<std::string> ContractRows(int rows) {
  std::vector<std::string> out;
  for (int i = 0; i < rows; ++i) {
    switch (i % 8) {
      case 0:
      case 4: out.push_back("7 Berner Strasse|61234"); break;
      case 1: out.push_back("12 Berner Gasse|61234"); break;
      case 5: out.push_back("9 Berner Strasse|61234 back door please"); break;
      case 2:
      case 6: out.push_back("1 Haupt Strasse|99999"); break;
      default: out.push_back("no address at all"); break;
    }
  }
  return out;
}

void FillContract(Bat* input, int rows) {
  for (const std::string& row : ContractRows(rows)) {
    ASSERT_TRUE(input->AppendString(row).ok());
  }
}

std::vector<int16_t> ValuesOf(const Bat& result) {
  std::vector<int16_t> values(static_cast<size_t>(result.count()));
  for (int64_t i = 0; i < result.count(); ++i) {
    values[static_cast<size_t>(i)] = result.GetInt16(i);
  }
  return values;
}

/// The block cached for `config` over the first `rows` rows of `column`;
/// empty when none.
std::vector<int16_t> CachedValues(ResultCache* cache,
                                  const RegexConfig& config,
                                  ColumnSnapshot column, int64_t rows) {
  CacheHit hit = ResolveCached(cache, config, column, rows, {.prefix = false});
  if (hit.block == nullptr) return {};
  return std::vector<int16_t>(hit.block->values.begin(),
                              hit.block->values.end());
}

std::vector<int16_t> CachedValues(ResultCache* cache,
                                  const RegexConfig& config,
                                  const Bat& input) {
  return CachedValues(cache, config, {input.id(), input.version()},
                      input.count());
}

struct PathRun {
  std::vector<int16_t> values;    // what the path returned
  std::vector<int16_t> expected;  // an uncached direct scan
  std::string strategy;
  int64_t rows_scanned = 0;
  int64_t scanned = 0;           // the rows the path had to scan
  std::vector<int16_t> block;    // cached for the scanned program after
  std::vector<int16_t> block_expected;
};

constexpr int kContractRows = 64;

void RunSchedulerPath(QueryScheduler::Options options, bool set_member,
                      PathRun* run) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillContract(&input, kContractRows);
  run->expected = DirectResult(&hal, input, kProgram);
  QueryScheduler scheduler(&hal, options);
  auto ticket = scheduler.Submit(scheduler.CreateSession(), input, kProgram);
  ASSERT_TRUE(ticket.ok());
  std::optional<QueryTicket> other;
  if (set_member) {
    auto second = scheduler.Submit(scheduler.CreateSession(), input, "Gasse");
    ASSERT_TRUE(second.ok());
    other = *second;
  }
  auto result = scheduler.Wait(*ticket);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (other.has_value()) {
    ASSERT_TRUE(scheduler.Wait(*other).ok());
    EXPECT_EQ(result->set_width, 2);
  }
  run->values = ValuesOf(*result->hudf.result);
  run->strategy = result->hudf.stats.strategy;
  run->rows_scanned = result->hudf.stats.rows_scanned;
  run->scanned = input.count();
  auto config = hal.CompileConfig(kProgram);
  ASSERT_TRUE(config.ok());
  run->block = CachedValues(scheduler.result_cache(), *config, input);
  run->block_expected = run->expected;
}

/// The rows a hybrid path scans: a refine resumes the cached prefix
/// block's candidates without scanning them.
enum class Scanned { kAll, kNone, kAppended };

/// Runs `pattern` through the hybrid executor with a cache that a run of
/// `seed` (if any) filled, after `grow` more rows were appended.
void RunHybridPath(const char* seed, int grow, const char* pattern,
                   Scanned scanned, PathRun* run) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillContract(&input, kContractRows);
  ResultCache cache(1 << 20);
  if (seed != nullptr) {
    ASSERT_TRUE(ExecuteHybrid(&hal, input, seed, {}, &cache).ok());
  }
  for (const std::string& row : ContractRows(grow)) {
    ASSERT_TRUE(input.AppendString(row).ok());
  }
  auto plan = PlanHybrid(pattern, hal.device_config());
  ASSERT_TRUE(plan.ok());
  auto uncached = ExecuteHybrid(&hal, input, *plan);
  ASSERT_TRUE(uncached.ok());
  run->expected = ValuesOf(*uncached->result);
  auto result = ExecuteHybrid(&hal, input, *plan, &cache);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  run->values = ValuesOf(*result->result);
  run->strategy = result->stats.strategy;
  run->rows_scanned = result->stats.rows_scanned;
  // The executor caches the scan of the plan's device program: the full
  // pattern's, or the kHybrid pre-filter's before its post-process.
  run->block = CachedValues(&cache, *plan->fpga_config, input);
  auto prefilter = RegexpFpga(&hal, input, *plan->fpga_config);
  ASSERT_TRUE(prefilter.ok());
  run->block_expected = ValuesOf(*prefilter->result);
  switch (scanned) {
    case Scanned::kAll: run->scanned = input.count(); break;
    case Scanned::kNone: run->scanned = 0; break;
    case Scanned::kAppended: run->scanned = grow; break;
  }
}

void RunStreamedPath(bool warm, PathRun* run) {
  Hal hal(TestHal());
  const std::vector<std::string> rows = ContractRows(kContractRows);
  Bat resident(ValueType::kString, hal.bat_allocator());
  FillContract(&resident, kContractRows);
  run->expected = DirectResult(&hal, resident, kProgram);
  Pager pager(hal.arena(), PagerOptions{});
  SegmentedColumn column(&pager, 512);
  for (const std::string& row : rows) ASSERT_TRUE(column.Append(row).ok());
  ASSERT_TRUE(column.Seal().ok());
  const SegmentSnapshot snapshot = column.Snapshot();
  ASSERT_GE(snapshot.segments.size(), 2u);
  auto config = hal.CompileConfig(kProgram);
  ASSERT_TRUE(config.ok());
  ResultCache cache(1 << 20);
  StreamOptions options;
  options.result_cache = &cache;
  auto out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, options);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  if (warm) {
    out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, options);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  run->values = ValuesOf(*out->result);
  run->strategy = out->stats.strategy;
  run->rows_scanned = out->stats.rows_scanned;
  run->scanned = warm ? 0 : snapshot.rows;
  // One block per sealed segment, in segment order.
  for (const auto& segment : snapshot.segments) {
    const std::vector<int16_t> block = CachedValues(
        &cache, *config, {segment->id(), Segment::kSealedVersion},
        segment->rows());
    run->block.insert(run->block.end(), block.begin(), block.end());
  }
  run->block_expected = run->expected;
}

struct CacheContractCase {
  const char* name;
  const char* strategy;
  void (*run)(PathRun*);
};

void PrintTo(const CacheContractCase& c, std::ostream* os) { *os << c.name; }

const CacheContractCase kContractCases[] = {
    {"SchedulerDevice", "fpga",
     [](PathRun* run) { RunSchedulerPath(CacheOn(), false, run); }},
    {"SchedulerCpu", "sched_cpu",
     [](PathRun* run) {
       QueryScheduler::Options options;  // cost routing: 64 rows go to CPU
       options.result_cache = true;
       RunSchedulerPath(options, false, run);
     }},
    {"SchedulerSetMember", "fpga-set",
     [](PathRun* run) {
       QueryScheduler::Options options = CacheOn();
       options.set_compilation = true;
       RunSchedulerPath(options, true, run);
     }},
    {"HybridExactHit", "fpga-cache",
     [](PathRun* run) {
       RunHybridPath(kProgram, 0, kProgram, Scanned::kNone, run);
     }},
    {"HybridPrefixSubsumedRefine", "fpga+cache_prefilter",
     [](PathRun* run) {
       RunHybridPath(kCoarse, 0, kProgram, Scanned::kNone, run);
     }},
    {"HybridPartialExtent", "fpga+cache_prefix",
     [](PathRun* run) {
       RunHybridPath(kProgram, 8, kProgram, Scanned::kAppended, run);
     }},
    {"HybridPrefilter", "hybrid",
     [](PathRun* run) {
       RunHybridPath(nullptr, 0, kSplit, Scanned::kAll, run);
     }},
    {"HybridCachedPrefilter", "hybrid+cache_prefilter",
     [](PathRun* run) {
       RunHybridPath(kSplit, 0, kSplit, Scanned::kNone, run);
     }},
    {"StreamedPerSegment", "fpga-streamed",
     [](PathRun* run) { RunStreamedPath(false, run); }},
    {"StreamedCachedSegments", "fpga-streamed",
     [](PathRun* run) { RunStreamedPath(true, run); }},
};

class CacheContractTest
    : public ::testing::TestWithParam<CacheContractCase> {};

TEST_P(CacheContractTest, ServesLikeAnUncachedScan) {
  PathRun run;
  GetParam().run(&run);
  if (HasFatalFailure()) return;
  EXPECT_EQ(run.values, run.expected);
  EXPECT_EQ(run.strategy, GetParam().strategy);
  EXPECT_EQ(run.rows_scanned, run.scanned);
  EXPECT_EQ(run.block, run.block_expected);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, CacheContractTest, ::testing::ValuesIn(kContractCases),
    [](const ::testing::TestParamInfo<CacheContractCase>& info) {
      return std::string(info.param.name);
    });

// --- ProgramCache accounting (evict-mid-wave regression) --------------------

TEST(ProgramCacheAccountingTest, EvictedButReferencedProgramsStayAccounted) {
  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/1);

  auto held = cache.GetOrCompile("Strasse");
  ASSERT_TRUE(held.ok());
  // A second program evicts the first while "the wave" (this test) still
  // holds it: resident size shrinks but the memory is live.
  auto other = cache.GetOrCompile("Gasse");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.live_size(), 2);
  EXPECT_GT(cache.live_bytes(), 0);

  // Re-inserting the evicted fingerprint re-adopts the original program:
  // same pointer, one live copy, no alias_shares double count.
  auto again = cache.GetOrCompile("Strasse");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), held->get());
  EXPECT_EQ(cache.readoptions(), 1);
  // "Gasse" is now the evicted-but-held one.
  EXPECT_EQ(cache.live_size(), 2);

  // Dropping the outstanding references brings live accounting back to
  // the resident slot count.
  held->reset();
  again->reset();
  other->reset();
  EXPECT_EQ(cache.live_size(), 1);
}

TEST(ProgramCacheAccountingTest, ReleasedEvictionsDoNotReadopt) {
  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/1);
  {
    auto transient = cache.GetOrCompile("Strasse");
    ASSERT_TRUE(transient.ok());
  }  // released before eviction
  ASSERT_TRUE(cache.GetOrCompile("Gasse").ok());
  EXPECT_EQ(cache.live_size(), 1);
  // The expired weak ref cannot be re-adopted: this is a fresh compile.
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());
  EXPECT_EQ(cache.readoptions(), 0);
}

// --- Ingest path ------------------------------------------------------------

TEST(ColumnStoreIngestTest, AppendToColumnBumpsVersionAndInvalidates) {
  ResultCache cache(1 << 20);
  ColumnStoreEngine::Options options;
  options.num_threads = 2;
  options.result_cache = &cache;
  ColumnStoreEngine engine(options);

  AddressDataOptions data;
  data.num_records = 512;
  auto table = GenerateAddressTable(data, "addr");
  ASSERT_TRUE(table.ok());
  Bat* column = (*table)->GetColumn("address_string");
  ASSERT_NE(column, nullptr);
  ASSERT_TRUE(engine.catalog()->AddTable(std::move(*table)).ok());

  const uint64_t version_before = column->version();
  ASSERT_TRUE(cache.Put("fp", column->id(), version_before, {1, 0}, false));

  auto version = engine.AppendToColumn("addr", "address_string",
                                       {"90 Neue Strasse|80002"});
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_GT(*version, version_before);
  EXPECT_EQ(*version, column->version());
  // Explicit invalidation freed the stale entry's budget eagerly.
  EXPECT_EQ(cache.size(), 0);
  EXPECT_GE(cache.invalidations(), 1);

  EXPECT_TRUE(engine.AppendToColumn("missing", "address_string", {"x"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(engine.AppendToColumn("addr", "missing", {"x"})
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(engine.AppendToColumn("addr", "id", {"x"})
                  .status()
                  .IsInvalidArgument());
}

// --- Concurrency (run under TSan in CI) -------------------------------------

TEST(SchedulerCacheTest, ConcurrentIngestNeverLeaksPastSnapshots) {
  // Queries admitted at version V must not observe V+1 rows. Ingest is
  // serialized against in-flight scans (the documented AppendToColumn
  // contract) with a shared mutex: queries hold it shared across
  // admission AND execution, ingest holds it exclusive. The scheduler,
  // result cache and version snapshots still race freely across the
  // query threads — which is what TSan checks here.
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 32);

  QueryScheduler scheduler(&hal, CacheOn());
  std::shared_mutex ingest_mutex;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  auto worker = [&](Session* session) {
    for (int iteration = 0; iteration < 30; ++iteration) {
      std::shared_lock<std::shared_mutex> guard(ingest_mutex);
      const int64_t before = input.count();
      auto result = scheduler.Execute(session, input, "Strasse");
      if (!result.ok()) {
        ++failures;
        continue;
      }
      // The admission snapshot is exactly the extent visible at Submit;
      // no later append may leak into the result.
      if (result->hudf.result->count() != before) ++failures;
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back(worker, scheduler.CreateSession());
  }
  std::thread ingester([&] {
    for (int append = 0; append < 20 && !stop.load(); ++append) {
      {
        std::unique_lock<std::shared_mutex> guard(ingest_mutex);
        ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
        scheduler.result_cache()->InvalidateColumn(input.id());
      }
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();
  stop.store(true);
  ingester.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace doppio
