#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "db/hybrid_executor.h"
#include "db/hudf.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "regex/dfa_matcher.h"
#include "sched/program_cache.h"
#include "sched/scheduler.h"

namespace doppio {
namespace {

using sched::ProgramCache;
using sched::QueryScheduler;
using sched::QueryTicket;
using sched::Route;
using sched::ScheduledResult;
using sched::Session;
using sched::SessionOptions;

Hal::Options TestHal() {
  Hal::Options options;
  options.shared_memory_bytes = 256 * kSharedPageBytes;
  options.functional_threads = 1;
  return options;
}

/// Deterministic address-flavored strings; `salt` varies the mix so
/// different inputs have different match sets.
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

/// Raw result column of the direct (schedulerless) partitioned path.
std::vector<int16_t> DirectResult(Hal* hal, const Bat& input,
                                  const std::string& pattern) {
  auto out = RegexpFpgaPartitioned(hal, input, pattern);
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

QueryScheduler::Options NoRouting() {
  QueryScheduler::Options options;
  options.cost_routing = false;
  return options;
}

// --- Basic execution --------------------------------------------------------

TEST(SchedulerTest, SingleQueryBitIdenticalToDirectPath) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 64);
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();
  auto result = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->route, Route::kFpga);
  EXPECT_EQ(result->batch_width, 1);
  EXPECT_GT(result->completion_seq, 0u);
  EXPECT_GT(result->hudf.stats.hw_seconds, 0.0);
  ExpectSameColumn(expected, *result->hudf.result);
  EXPECT_EQ(session->admitted(), 1);
  EXPECT_EQ(session->completed(), 1);
}

TEST(SchedulerTest, ZeroRowInputCompletes) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();
  auto result = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hudf.result->count(), 0);
}

TEST(SchedulerTest, TicketMisuseIsRejected) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 8);
  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();

  EXPECT_TRUE(scheduler.Wait(QueryTicket()).status().IsInvalidArgument());
  EXPECT_TRUE(
      scheduler.Submit(nullptr, input, "x").status().IsInvalidArgument());

  auto ticket = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(scheduler.Wait(*ticket).ok());
  // A ticket completes exactly once.
  EXPECT_TRUE(scheduler.Wait(*ticket).status().IsInvalidArgument());
}

// --- Admission control ------------------------------------------------------

TEST(AdmissionTest, SessionQueueBoundRejectsOverloaded) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 16);
  QueryScheduler scheduler(&hal, NoRouting());
  SessionOptions session_options;
  session_options.max_queued = 2;
  Session* session = scheduler.CreateSession(session_options);

  auto t1 = scheduler.Submit(session, input, "Strasse");
  auto t2 = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  auto t3 = scheduler.Submit(session, input, "Strasse");
  ASSERT_FALSE(t3.ok());
  EXPECT_TRUE(t3.status().IsOverloaded()) << t3.status().ToString();
  // Admission rejects tell the client to back off — they are not device
  // faults, so they must not degrade to software.
  EXPECT_FALSE(IsFallbackEligible(t3.status()));
  EXPECT_EQ(session->rejected(), 1);
  EXPECT_EQ(scheduler.queue_depth(), 2);

  // Draining the queue re-opens admission.
  ASSERT_TRUE(scheduler.Wait(*t1).ok());
  ASSERT_TRUE(scheduler.Wait(*t2).ok());
  EXPECT_EQ(scheduler.queue_depth(), 0);
  auto t4 = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(scheduler.Wait(*t4).ok());
}

TEST(AdmissionTest, GlobalQueueBoundRejectsOverloaded) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 16);
  QueryScheduler::Options options = NoRouting();
  options.global_queue_limit = 2;
  QueryScheduler scheduler(&hal, options);
  Session* a = scheduler.CreateSession();
  Session* b = scheduler.CreateSession();

  auto t1 = scheduler.Submit(a, input, "Strasse");
  auto t2 = scheduler.Submit(b, input, "Strasse");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  // Both per-session queues have room; the global bound rejects anyway.
  auto t3 = scheduler.Submit(a, input, "Strasse");
  EXPECT_TRUE(t3.status().IsOverloaded()) << t3.status().ToString();
  ASSERT_TRUE(scheduler.Wait(*t1).ok());
  ASSERT_TRUE(scheduler.Wait(*t2).ok());
}

TEST(AdmissionTest, ShutdownFailsQueuedAndRejectsNew) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 16);
  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();

  auto queued = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(queued.ok());
  scheduler.Shutdown();
  // The queued query was failed, not lost; new submissions are refused.
  EXPECT_TRUE(scheduler.Wait(*queued).status().IsUnavailable());
  EXPECT_TRUE(
      scheduler.Submit(session, input, "Strasse").status().IsUnavailable());
  scheduler.Shutdown();  // idempotent
}

// --- Fairness ---------------------------------------------------------------

TEST(FairnessTest, EqualWeightsInterleaveCompletions) {
  Hal hal(TestHal());
  Bat input_a(ValueType::kString, hal.bat_allocator());
  Bat input_b(ValueType::kString, hal.bat_allocator());
  const int rows = 32;
  FillInput(&input_a, rows);
  FillInput(&input_b, rows, /*salt=*/1);

  QueryScheduler::Options options = NoRouting();
  options.quantum_rows = rows;  // one query per session per DRR round
  QueryScheduler scheduler(&hal, options);
  SessionOptions sa, sb;
  sa.tenant = "alice";
  sb.tenant = "bob";
  Session* a = scheduler.CreateSession(sa);
  Session* b = scheduler.CreateSession(sb);

  // Distinct patterns so same-pattern coalescing cannot mix the sessions'
  // queues; fairness must come from DRR alone.
  const int per_session = 8;
  std::vector<QueryTicket> tickets_a, tickets_b;
  for (int i = 0; i < per_session; ++i) {
    auto ta = scheduler.Submit(a, input_a, "Strasse");
    auto tb = scheduler.Submit(b, input_b, "Gasse");
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    tickets_a.push_back(std::move(*ta));
    tickets_b.push_back(std::move(*tb));
  }
  std::vector<uint64_t> seq_a, seq_b;
  for (int i = 0; i < per_session; ++i) {
    auto ra = scheduler.Wait(tickets_a[static_cast<size_t>(i)]);
    auto rb = scheduler.Wait(tickets_b[static_cast<size_t>(i)]);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    seq_a.push_back(ra->completion_seq);
    seq_b.push_back(rb->completion_seq);
  }
  // No starvation: the i-th completions of the two equally-weighted
  // sessions are never more than a wave apart.
  for (int i = 0; i < per_session; ++i) {
    const int64_t da = static_cast<int64_t>(seq_a[static_cast<size_t>(i)]);
    const int64_t db = static_cast<int64_t>(seq_b[static_cast<size_t>(i)]);
    EXPECT_LE(std::abs(da - db), 4) << "i=" << i;
  }
}

TEST(FairnessTest, HigherWeightDrainsFaster) {
  Hal hal(TestHal());
  Bat input_a(ValueType::kString, hal.bat_allocator());
  Bat input_b(ValueType::kString, hal.bat_allocator());
  const int rows = 32;
  FillInput(&input_a, rows);
  FillInput(&input_b, rows, /*salt=*/1);

  QueryScheduler::Options options = NoRouting();
  options.quantum_rows = rows;
  QueryScheduler scheduler(&hal, options);
  SessionOptions heavy, light;
  heavy.tenant = "heavy";
  heavy.weight = 2;
  light.tenant = "light";
  light.weight = 1;
  Session* a = scheduler.CreateSession(heavy);
  Session* b = scheduler.CreateSession(light);

  const int per_session = 6;
  std::vector<QueryTicket> tickets_a, tickets_b;
  for (int i = 0; i < per_session; ++i) {
    auto ta = scheduler.Submit(a, input_a, "Strasse");
    auto tb = scheduler.Submit(b, input_b, "Gasse");
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    tickets_a.push_back(std::move(*ta));
    tickets_b.push_back(std::move(*tb));
  }
  double sum_a = 0, sum_b = 0;
  for (int i = 0; i < per_session; ++i) {
    auto ra = scheduler.Wait(tickets_a[static_cast<size_t>(i)]);
    auto rb = scheduler.Wait(tickets_b[static_cast<size_t>(i)]);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    sum_a += static_cast<double>(ra->completion_seq);
    sum_b += static_cast<double>(rb->completion_seq);
  }
  // The weight-2 session's queries complete earlier on average; the
  // weight-1 session still finishes everything (no starvation).
  EXPECT_LT(sum_a / per_session, sum_b / per_session);
}

// --- Cross-query batching ---------------------------------------------------

TEST(BatchingTest, CoalescedWavesAreBitIdenticalToSerial) {
  Hal hal(TestHal());
  Bat input_a(ValueType::kString, hal.bat_allocator());
  Bat input_b(ValueType::kString, hal.bat_allocator());
  FillInput(&input_a, 48);
  FillInput(&input_b, 48, /*salt=*/2);
  const std::vector<int16_t> expected_a =
      DirectResult(&hal, input_a, "Strasse");
  const std::vector<int16_t> expected_b =
      DirectResult(&hal, input_b, "Strasse");

  obs::Counter* coalesced = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.coalesced");
  const int64_t coalesced_before = coalesced->Value();

  QueryScheduler::Options options = NoRouting();
  // One query per session per DRR round, so the wave has leftover width
  // and the same-pattern coalescing pass (not just DRR) fills it.
  options.quantum_rows = 48;
  QueryScheduler scheduler(&hal, options);
  Session* a = scheduler.CreateSession();
  Session* b = scheduler.CreateSession();

  // Same pattern from both sessions: the scheduler coalesces the queries
  // into shared waves; every query still gets exactly its own rows back.
  const int per_session = 4;
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < per_session; ++i) {
    auto ta = scheduler.Submit(a, input_a, "Strasse");
    auto tb = scheduler.Submit(b, input_b, "Strasse");
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    tickets.push_back(std::move(*ta));
    tickets.push_back(std::move(*tb));
  }
  int max_width = 0;
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto result = scheduler.Wait(tickets[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    max_width = std::max(max_width, result->batch_width);
    const auto& expected = (i % 2 == 0) ? expected_a : expected_b;
    ExpectSameColumn(expected, *result->hudf.result);
  }
  // Batching actually happened (and was counted).
  EXPECT_GT(max_width, 1);
  EXPECT_GT(coalesced->Value(), coalesced_before);
}

// --- Pattern-set compilation ------------------------------------------------

TEST(PatternSetSchedTest, DistinctPatternsCoalesceIntoOneSetScan) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  const int rows = 32;
  FillInput(&input, rows);
  const std::vector<std::string> patterns = {"Strasse", "Gasse", "Berner"};
  std::vector<std::vector<int16_t>> expected;
  for (const std::string& pattern : patterns) {
    expected.push_back(DirectResult(&hal, input, pattern));
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* coalesced =
      registry.GetCounter("doppio.sched.set_compile.coalesced");
  obs::Counter* waves = registry.GetCounter("doppio.sched.set_compile.waves");
  obs::Counter* queries =
      registry.GetCounter("doppio.sched.set_compile.queries");
  const int64_t coalesced0 = coalesced->Value();
  const int64_t waves0 = waves->Value();
  const int64_t queries0 = queries->Value();

  QueryScheduler::Options options = NoRouting();
  options.set_compilation = true;
  // One query per DRR round: only the set-coalescing pass can pull the
  // remaining patterns into the wave.
  options.quantum_rows = rows;
  QueryScheduler scheduler(&hal, options);
  Session* session = scheduler.CreateSession();

  std::vector<QueryTicket> tickets;
  for (const std::string& pattern : patterns) {
    auto ticket = scheduler.Submit(session, input, pattern);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(std::move(*ticket));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto result = scheduler.Wait(tickets[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->route, Route::kFpga);
    // All three patterns ran as ONE set-compiled scan: a single batch
    // slot serving a three-pattern set.
    EXPECT_EQ(result->batch_width, 1) << patterns[i];
    EXPECT_EQ(result->set_width, 3) << patterns[i];
    ExpectSameColumn(expected[i], *result->hudf.result);
  }
  EXPECT_EQ(coalesced->Value() - coalesced0, 2);  // Gasse + Berner pulled
  EXPECT_EQ(waves->Value() - waves0, 1);          // one set scan total
  EXPECT_EQ(queries->Value() - queries0, 3);
  EXPECT_EQ(scheduler.program_cache().set_misses(), 1);
}

TEST(PatternSetSchedTest, SetScanChargesEveryOwnerNoFreeRide) {
  // Satellite fairness property: a set-compiled wave serving K queries of
  // one tenant debits that tenant K costs, so a heavy tenant cycling many
  // patterns over one column cannot starve a light tenant on another.
  Hal hal(TestHal());
  Bat input_h(ValueType::kString, hal.bat_allocator());
  Bat input_l(ValueType::kString, hal.bat_allocator());
  const int rows = 32;
  FillInput(&input_h, rows);
  FillInput(&input_l, rows, /*salt=*/1);
  const std::vector<int16_t> expected_h =
      DirectResult(&hal, input_h, "Strasse");
  const std::vector<int16_t> expected_l = DirectResult(&hal, input_l, "61234");

  QueryScheduler::Options options = NoRouting();
  options.set_compilation = true;
  options.quantum_rows = rows;
  QueryScheduler scheduler(&hal, options);
  SessionOptions ho, lo;
  ho.tenant = "heavy";
  lo.tenant = "light";
  Session* heavy = scheduler.CreateSession(ho);
  Session* light = scheduler.CreateSession(lo);

  // Heavy floods 12 queries cycling three patterns over its column (every
  // wave it joins set-coalesces to width 3, borrowing against its own
  // deficit); light asks for 4 modest scans of a different column.
  const char* cycle[] = {"Strasse", "Gasse", "Berner"};
  std::vector<QueryTicket> heavy_tickets, light_tickets;
  for (int i = 0; i < 12; ++i) {
    auto ticket = scheduler.Submit(heavy, input_h, cycle[i % 3]);
    ASSERT_TRUE(ticket.ok());
    heavy_tickets.push_back(std::move(*ticket));
  }
  for (int i = 0; i < 4; ++i) {
    auto ticket = scheduler.Submit(light, input_l, "61234");
    ASSERT_TRUE(ticket.ok());
    light_tickets.push_back(std::move(*ticket));
  }

  double heavy_mean = 0, light_mean = 0;
  uint64_t light_max_seq = 0;
  int heavy_set_scans = 0;
  for (auto& ticket : heavy_tickets) {
    auto result = scheduler.Wait(ticket);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    heavy_mean += static_cast<double>(result->completion_seq);
    if (result->set_width > 1) ++heavy_set_scans;
  }
  for (auto& ticket : light_tickets) {
    auto result = scheduler.Wait(ticket);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    light_mean += static_cast<double>(result->completion_seq);
    light_max_seq = std::max(light_max_seq, result->completion_seq);
    ExpectSameColumn(expected_l, *result->hudf.result);
  }
  heavy_mean /= 12;
  light_mean /= 4;
  // Heavy actually used set scans — and still paid for every query: the
  // loans drive its deficit negative, so light drains first.
  EXPECT_GT(heavy_set_scans, 0);
  EXPECT_LT(light_mean, heavy_mean);
  // Light's last completion lands within the first half of the sequence:
  // heavy's 12-query flood cannot push light to the back.
  EXPECT_LE(light_max_seq, 8u);

  // Heavy's own results stayed bit-identical through the set path.
  auto check = scheduler.Execute(heavy, input_h, "Strasse");
  ASSERT_TRUE(check.ok());
  ExpectSameColumn(expected_h, *check->hudf.result);
}

// --- Cost-model routing -----------------------------------------------------

TEST(RoutingTest, SmallInputsRouteToCpuBitIdentically) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 12);
  const std::vector<int16_t> expected = DirectResult(&hal, input, "Strasse");

  QueryScheduler::Options options;
  options.cost_routing = true;
  options.cpu_route_max_rows = 64;  // 12-row input must go to the CPU
  QueryScheduler scheduler(&hal, options);
  Session* session = scheduler.CreateSession();
  auto result = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->route, Route::kCpuProgram);
  EXPECT_EQ(result->hudf.stats.strategy, "sched_cpu");
  // The CPU route runs the same compiled program the engines execute.
  ExpectSameColumn(expected, *result->hudf.result);
}

// Routing predictions read the program the ProgramCache holds: once the
// pattern is cached, admission compiles nothing.
TEST(RoutingTest, ProgramCacheHitSubmitCompilesNothing) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 512);

  QueryScheduler::Options options;
  options.cost_routing = true;
  options.cpu_route_max_rows = 64;  // 512 rows: the cost model decides
  QueryScheduler scheduler(&hal, options);
  Session* session = scheduler.CreateSession();
  obs::Counter* compiles = obs::MetricsRegistry::Global().GetCounter(
      "doppio.regex.config_compiles");

  int64_t before = compiles->Value();
  auto cold = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(compiles->Value() - before, 1);  // the cache miss

  before = compiles->Value();
  auto ticket = scheduler.Submit(session, input, "Strasse");
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(compiles->Value() - before, 0);
  auto warm = scheduler.Wait(*ticket);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->route, cold->route);
  EXPECT_EQ(compiles->Value() - before, 0);
}

TEST(RoutingTest, OverflowPatternsRouteToCpuDfa) {
  Hal::Options hal_options = TestHal();
  hal_options.device.max_chars = 4;  // "Strasse" (7 matchers) cannot fit
  Hal hal(hal_options);
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 32);

  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();
  auto result = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->route, Route::kCpuDfa);
  EXPECT_EQ(result->hudf.stats.strategy, "software");

  auto dfa = DfaMatcher::Compile("Strasse");
  ASSERT_TRUE(dfa.ok());
  int64_t expected_matches = 0;
  for (int64_t i = 0; i < input.count(); ++i) {
    const bool matched = (*dfa)->Matches(input.GetString(i));
    if (matched) ++expected_matches;
    EXPECT_EQ(result->hudf.result->GetInt16(i) != 0, matched) << "row " << i;
  }
  EXPECT_EQ(result->hudf.stats.rows_matched, expected_matches);
}

// --- Program cache (LRU) ----------------------------------------------------

TEST(ProgramCacheTest, LruEvictionOrder) {
  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/2);
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());
  ASSERT_TRUE(cache.GetOrCompile("Gasse").ok());
  EXPECT_EQ(cache.KeysMruFirst(),
            (std::vector<std::string>{ProgramCache::MakeKey("Gasse", {}),
                                      ProgramCache::MakeKey("Strasse", {})}));

  // Touching the LRU entry promotes it, so the other entry is evicted.
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());
  ASSERT_TRUE(cache.GetOrCompile("Berner").ok());
  EXPECT_EQ(cache.KeysMruFirst(),
            (std::vector<std::string>{ProgramCache::MakeKey("Berner", {}),
                                      ProgramCache::MakeKey("Strasse", {})}));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 3);
}

TEST(ProgramCacheTest, CountersMirrorIntoMetricsRegistry) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* hits = registry.GetCounter("doppio.sched.program_cache.hits");
  obs::Counter* misses =
      registry.GetCounter("doppio.sched.program_cache.misses");
  obs::Counter* evictions =
      registry.GetCounter("doppio.sched.program_cache.evictions");
  const int64_t hits0 = hits->Value();
  const int64_t misses0 = misses->Value();
  const int64_t evictions0 = evictions->Value();

  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/1);
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());  // miss
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());  // hit
  ASSERT_TRUE(cache.GetOrCompile("Gasse").ok());    // miss + eviction
  EXPECT_EQ(hits->Value() - hits0, 1);
  EXPECT_EQ(misses->Value() - misses0, 2);
  EXPECT_EQ(evictions->Value() - evictions0, 1);
}

TEST(ProgramCacheTest, OptionsAreCacheKeys) {
  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/4);
  CompileOptions fold;
  fold.case_insensitive = true;
  ASSERT_TRUE(cache.GetOrCompile("Strasse").ok());
  ASSERT_TRUE(cache.GetOrCompile("Strasse", fold).ok());
  EXPECT_EQ(cache.size(), 2);  // distinct compilations, no false sharing
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ProgramCacheTest, FailedCompilesAreNotCached) {
  DeviceConfig device;
  device.max_chars = 4;
  ProgramCache cache(device, /*capacity=*/2);
  auto oversize = cache.GetOrCompile("Strasse");
  EXPECT_TRUE(oversize.status().IsCapacityExceeded());
  EXPECT_EQ(cache.size(), 0);
}

TEST(ProgramCacheTest, SemanticallyIdenticalPatternsShareOneSlot) {
  // Case folding lowercases literals at the AST level, so "strasse" and
  // "STRASSE" compile to byte-identical config vectors. The cache keys
  // slots by that compiled fingerprint: the second spelling aliases onto
  // the first slot instead of double-caching the program.
  obs::Counter* shares = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.program_cache.alias_shares");
  const int64_t shares0 = shares->Value();

  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/4);
  CompileOptions fold;
  fold.case_insensitive = true;
  auto a = cache.GetOrCompile("strasse", fold);
  auto b = cache.GetOrCompile("STRASSE", fold);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->fingerprint, (*b)->fingerprint);
  // One slot, one immutable entry — the regression this guards: the
  // second spelling used to compile AND occupy a second LRU slot.
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.misses(), 2);  // both spellings compiled cold once
  EXPECT_EQ(shares->Value() - shares0, 1);

  // Both spellings are now alias keys of the shared slot: hits, no
  // recompilation.
  ASSERT_TRUE(cache.GetOrCompile("strasse", fold).ok());
  ASSERT_TRUE(cache.GetOrCompile("STRASSE", fold).ok());
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);

  // Eviction removes every alias of the victim, not just its first key.
  ProgramCache small(device, /*capacity=*/1);
  ASSERT_TRUE(small.GetOrCompile("strasse", fold).ok());
  ASSERT_TRUE(small.GetOrCompile("STRASSE", fold).ok());
  ASSERT_TRUE(small.GetOrCompile("Gasse").ok());  // evicts the shared slot
  EXPECT_EQ(small.size(), 1);
  ASSERT_TRUE(small.GetOrCompile("STRASSE", fold).ok());
  EXPECT_EQ(small.hits(), 0);   // no stale alias hit after eviction
  EXPECT_EQ(small.misses(), 4);  // the evicted alias had to recompile
}

TEST(ProgramCacheTest, SetProgramsAreKeyedOrderInsensitively) {
  DeviceConfig device;
  ProgramCache cache(device, /*capacity=*/4);
  auto strasse = cache.GetOrCompile("Strasse");
  auto gasse = cache.GetOrCompile("Gasse");
  ASSERT_TRUE(strasse.ok());
  ASSERT_TRUE(gasse.ok());

  auto ab = cache.GetOrCompileSet({*strasse, *gasse});
  auto ba = cache.GetOrCompileSet({*gasse, *strasse});
  ASSERT_TRUE(ab.ok()) << ab.status().ToString();
  ASSERT_TRUE(ba.ok());
  // Any submission order of the same member set is the same cached
  // program with the same stream assignment.
  EXPECT_EQ(ab->get(), ba->get());
  EXPECT_EQ(cache.set_size(), 1);
  EXPECT_EQ(cache.set_misses(), 1);
  EXPECT_EQ(cache.set_hits(), 1);
  const int s = (*ab)->StreamOf((*strasse)->fingerprint);
  const int g = (*ab)->StreamOf((*gasse)->fingerprint);
  EXPECT_NE(s, -1);
  EXPECT_NE(g, -1);
  EXPECT_NE(s, g);
  // Duplicate members dedup into the same set.
  auto dup = cache.GetOrCompileSet({*strasse, *gasse, *strasse});
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->get(), ab->get());
}

TEST(ProgramCacheTest, HitExecutesBitIdenticalToColdCompile) {
  Hal hal(TestHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  FillInput(&input, 48);

  // Cold compile in a fresh scheduler.
  std::vector<int16_t> cold;
  {
    QueryScheduler scheduler(&hal, NoRouting());
    Session* session = scheduler.CreateSession();
    auto result = scheduler.Execute(session, input, "Strasse");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(scheduler.program_cache().misses(), 1);
    for (int64_t i = 0; i < result->hudf.result->count(); ++i) {
      cold.push_back(result->hudf.result->GetInt16(i));
    }
  }
  // Warm hit in a scheduler that has already served the pattern.
  QueryScheduler scheduler(&hal, NoRouting());
  Session* session = scheduler.CreateSession();
  ASSERT_TRUE(scheduler.Execute(session, input, "Strasse").ok());
  auto warm = scheduler.Execute(session, input, "Strasse");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(scheduler.program_cache().hits(), 1);
  EXPECT_EQ(scheduler.program_cache().misses(), 1);
  ExpectSameColumn(cold, *warm->hudf.result);
}

}  // namespace
}  // namespace doppio
