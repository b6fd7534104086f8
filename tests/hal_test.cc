#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "hal/job_lifecycle.h"
#include "mem/arena.h"
#include "obs/metrics.h"

namespace doppio {
namespace {

Hal::Options SmallHal() {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;  // 128 MiB
  options.functional_threads = 2;
  return options;
}

TEST(HalAllocatorTest, SmallAllocationsStayOnMalloc) {
  Hal hal(SmallHal());
  auto small = hal.allocator()->Allocate(1024);
  ASSERT_TRUE(small.ok());
  // Metadata-sized allocations are not in the shared region (§4.2.1).
  EXPECT_FALSE(hal.arena()->Contains(*small));
  ASSERT_TRUE(hal.allocator()->Free(*small).ok());
  EXPECT_EQ(hal.allocator()->malloc_allocations(), 1);
  EXPECT_EQ(hal.allocator()->shared_allocations(), 0);
}

TEST(HalAllocatorTest, BatSizedAllocationsAreShared) {
  Hal hal(SmallHal());
  auto big = hal.allocator()->Allocate(1 << 20);
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(hal.arena()->Contains(*big, 1 << 20));
  ASSERT_TRUE(hal.allocator()->Free(*big).ok());
  EXPECT_EQ(hal.allocator()->shared_allocations(), 1);
}

TEST(HalAllocatorTest, ThresholdBoundary) {
  Hal hal(SmallHal());
  auto below = hal.allocator()->Allocate(16 * 1024 - 1);
  auto at = hal.allocator()->Allocate(16 * 1024);
  ASSERT_TRUE(below.ok());
  ASSERT_TRUE(at.ok());
  EXPECT_FALSE(hal.arena()->Contains(*below));
  EXPECT_TRUE(hal.arena()->Contains(*at));
  ASSERT_TRUE(hal.allocator()->Free(*below).ok());
  ASSERT_TRUE(hal.allocator()->Free(*at).ok());
}

TEST(HalTest, CompileConfigChecksDeployedGeometry) {
  Hal::Options options = SmallHal();
  options.device.max_chars = 8;
  Hal hal(options);
  EXPECT_TRUE(hal.CompileConfig("abc").ok());
  EXPECT_TRUE(
      hal.CompileConfig("patterntoolong").status().IsCapacityExceeded());
}

TEST(HalTest, EndToEndRegexJob) {
  Hal hal(SmallHal());

  // Build a string BAT in shared memory, as MonetDB would.
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 1000; ++i) {
    bool hit = i % 5 == 0;
    ASSERT_TRUE(input
                    .AppendString(hit ? "Koblenzer Strasse 44"
                                      : "Koblenzer Gasse 44")
                    .ok());
  }

  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  auto result = Bat::New(ValueType::kInt16, input.count(), hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*result)->AppendZeros(input.count()).ok());

  auto job = hal.CreateRegexJob(input, result->get(), *config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_TRUE(job->Wait().ok());
  EXPECT_TRUE(job->Done());
  EXPECT_EQ(job->status().matches, 200);
  EXPECT_GT(job->HwSeconds(), 0.0);

  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ((*result)->GetInt16(i) != 0, i % 5 == 0);
  }
}

TEST(HalTest, RejectsMismatchedResultBat) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("x").ok());
  auto config = hal.CompileConfig("x");
  ASSERT_TRUE(config.ok());

  Bat wrong_type(ValueType::kInt32, hal.bat_allocator());
  ASSERT_TRUE(wrong_type.AppendInt32(0).ok());
  EXPECT_FALSE(
      hal.CreateRegexJob(input, &wrong_type, *config).ok());

  Bat wrong_size(ValueType::kInt16, hal.bat_allocator());
  EXPECT_FALSE(
      hal.CreateRegexJob(input, &wrong_size, *config).ok());
}

TEST(HalTest, RejectsMallocBackedInput) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString);  // malloc-backed: not FPGA-visible
  ASSERT_TRUE(input.AppendString("Strasse").ok());
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  auto result = Bat::New(ValueType::kInt16, 1, hal.bat_allocator());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE((*result)->AppendZeros(1).ok());
  auto job = hal.CreateRegexJob(input, result->get(), *config);
  EXPECT_FALSE(job.ok());
}

TEST(HudfTest, RegexpFpgaReportsPhaseBreakdown) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(input.AppendString(i % 4 == 0
                                       ? "7 Berner Str.|81234|Muenchen"
                                       : "7 Berner Gasse|61234|Muenchen")
                    .ok());
  }
  auto result = RegexpFpga(&hal, input, R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.rows_scanned, 10'000);
  EXPECT_EQ(result->stats.rows_matched, 2500);
  EXPECT_GT(result->stats.hw_seconds, 0.0);
  EXPECT_GE(result->stats.config_gen_seconds, 0.0);
  EXPECT_LT(result->stats.config_gen_seconds, 1e-3);
  EXPECT_EQ(result->stats.strategy, "fpga");
  EXPECT_EQ(result->result->count(), 10'000);
}

TEST(HudfTest, RegexpFpgaPatternReportsSoftwarePhase) {
  // The pattern entry point once subtracted the compile time from a UDF
  // stopwatch that started after the compile, clamping the phase to 0.
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
  auto result = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.rows_matched, 1);
  EXPECT_GT(result->stats.udf_software_seconds, 0.0);
}

TEST(HudfTest, PartitionedMatchesSingleJob) {
  // The engine-side HUDF splits one query across all four engines
  // (paper §7.5); results must be identical to the single-job run and
  // the virtual execution faster (QPI saturation vs window limit).
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  Rng rng(4);
  for (int i = 0; i < 40'000; ++i) {
    std::string row = rng.Bernoulli(0.25)
                          ? "7 Berner Strasse|61234|Muenchen"
                          : "7 Berner Gasse|61234|Muenchen";
    ASSERT_TRUE(input.AppendString(row).ok());
  }

  auto single = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(single.ok());
  auto partitioned = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();

  ASSERT_EQ(partitioned->result->count(), single->result->count());
  for (int64_t i = 0; i < input.count(); ++i) {
    EXPECT_EQ(partitioned->result->GetInt16(i), single->result->GetInt16(i))
        << i;
  }
  EXPECT_EQ(partitioned->stats.rows_matched, single->stats.rows_matched);
  // Four engines streaming concurrently beat one window-limited engine.
  EXPECT_LT(partitioned->stats.hw_seconds, single->stats.hw_seconds);
}

TEST(HudfTest, PartitionedHandlesTinyInputs) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("Strasse").ok());
  ASSERT_TRUE(input.AppendString("Gasse").ok());
  auto result = RegexpFpgaPartitioned(&hal, input, "Strasse");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->result->GetInt16(0), 0);
  EXPECT_EQ(result->result->GetInt16(1), 0);
}

TEST(HudfTest, ZeroRowInputYieldsEmptyResult) {
  // Regression: an empty BAT used to produce no jobs but still derive the
  // hardware phase from an empty min/max of enqueue/finish times.
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());

  auto single = RegexpFpga(&hal, input, "Strasse");
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->result->count(), 0);
  EXPECT_EQ(single->stats.rows_matched, 0);
  EXPECT_EQ(single->stats.hw_seconds, 0.0);

  auto part =
      RegexpFpgaPartitioned(&hal, input, "Strasse", CompileOptions{}, 4);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  EXPECT_EQ(part->result->count(), 0);
  EXPECT_EQ(part->stats.rows_matched, 0);
  EXPECT_EQ(part->stats.hw_seconds, 0.0);
  EXPECT_EQ(part->stats.strategy, "fpga");
}

TEST(HudfTest, OneRowWithMorePartitionsThanRows) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("7 Berner Strasse|61234").ok());
  auto out =
      RegexpFpgaPartitioned(&hal, input, "Strasse", CompileOptions{}, 4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->result->count(), 1);
  EXPECT_NE(out->result->GetInt16(0), 0);
  EXPECT_EQ(out->stats.rows_matched, 1);
  EXPECT_GT(out->stats.hw_seconds, 0.0);
}

TEST(HudfTest, OverCapacityPatternFails) {
  Hal::Options options = SmallHal();
  options.device.max_chars = 8;
  Hal hal(options);
  Bat input(ValueType::kString, hal.bat_allocator());
  ASSERT_TRUE(input.AppendString("abc").ok());
  auto result = RegexpFpga(&hal, input, "averyveryverylongpattern");
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

// ---------------------------------------------------------------------
// Job-record reclamation: a record lives while the host holds its handle
// or the device points at it, never for the device's lifetime.
// ---------------------------------------------------------------------

/// Records that can be live while each waiter holds at most one handle:
/// every other record sits in the descriptor ring or on an engine.
int64_t LiveRecordBound(FpgaDevice* device) {
  return device->config().num_engines +
         device->distributor()->queue().capacity();
}

/// A small shared-memory job: `rows` address strings, one in four a hit.
struct SmallJob {
  std::unique_ptr<Bat> input;
  std::unique_ptr<Bat> result;
  RegexConfig config;
};

SmallJob MakeSmallJob(Hal* hal, int rows) {
  SmallJob job;
  job.input = std::make_unique<Bat>(ValueType::kString, hal->bat_allocator());
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(job.input
                    ->AppendString(i % 4 == 0 ? "7 Berner Strasse|61234"
                                              : "7 Berner Gasse|61234")
                    .ok());
  }
  auto result = Bat::New(ValueType::kInt16, rows, hal->bat_allocator());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE((*result)->AppendZeros(rows).ok());
  job.result = std::move(*result);
  auto config = hal->CompileConfig("Strasse");
  EXPECT_TRUE(config.ok());
  job.config = std::move(*config);
  return job;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

TEST(JobReclamationTest, SubmitWaitReleaseCyclesStayBounded) {
  Hal hal(SmallHal());
  FpgaDevice* device = hal.device();
  SmallJob small = MakeSmallJob(&hal, 8);
  const int64_t bound = LiveRecordBound(device);
  int64_t peak = 0;
  for (int i = 0; i < 100'000; ++i) {
    auto job = hal.CreateRegexJob(*small.input, small.result.get(),
                                  small.config);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE(job->Wait().ok());
    ASSERT_EQ(job->status().matches, 2);
    job->Release();
    EXPECT_FALSE(job->valid());
    peak = std::max(peak, device->live_jobs());
    ASSERT_LE(peak, bound) << "after cycle " << i;
  }
  EXPECT_EQ(device->live_jobs(), 0);
}

TEST(JobReclamationTest, CancelledQueuedAttemptIsReclaimedWhenSkipped) {
  Hal hal(SmallHal());
  FpgaDevice* device = hal.device();
  const int engines = device->config().num_engines;
  SmallJob small = MakeSmallJob(&hal, 20'000);
  auto params =
      hal.BuildRegexJobParams(*small.input, small.result.get(), small.config);
  ASSERT_TRUE(params.ok());

  // Occupy every engine, then queue one more job behind them.
  std::vector<FpgaJob> running;
  for (int i = 0; i < engines; ++i) {
    auto id = device->Submit(*params);
    ASSERT_TRUE(id.ok());
    running.emplace_back(device, *id);
  }
  auto queued_id = device->Submit(*params);
  ASSERT_TRUE(queued_id.ok());
  FpgaJob queued(device, *queued_id);
  // Past the distributor's poll: the engines took the first jobs, and
  // none of them is near done.
  device->AdvanceVirtualTime(PicosFromSeconds(5e-6));
  ASSERT_EQ(device->status(*queued_id)->dispatch_time, 0);

  // Abandon the queued attempt: the ring still points at it.
  ASSERT_TRUE(queued.Cancel().ok());
  queued.Release();
  EXPECT_EQ(device->live_jobs(), engines + 1);

  // The distributor pops and skips it once an engine frees.
  const int64_t skipped = CounterValue("doppio.queue.cancelled_skipped");
  device->RunToIdle();
  EXPECT_EQ(CounterValue("doppio.queue.cancelled_skipped"), skipped + 1);
  EXPECT_EQ(device->live_jobs(), engines);
  EXPECT_EQ(device->status(*queued_id), nullptr);

  // Done jobs are held for their open handles only.
  for (FpgaJob& job : running) {
    EXPECT_TRUE(job.Done());
    job.Release();
  }
  EXPECT_EQ(device->live_jobs(), 0);
}

TEST(JobReclamationTest, AbandonedAttemptsUnderFaultsAreReclaimed) {
  // Drops, delayed completions and late done bits, with a retry policy
  // tight enough that delayed attempts expire: the lifecycle cancels and
  // resubmits, and every abandoned attempt must be reclaimed once the
  // distributor skips it or its engine frees.
  Hal::Options options = SmallHal();
  FaultPlan& faults = options.device.faults;
  faults.enabled = true;
  faults.seed = 31;
  faults.drop_rate = 0.05;
  faults.delay_rate = 0.3;
  faults.delay_seconds = 50e-6;
  faults.done_latency_rate = 0.05;
  faults.done_latency_seconds = 1e-6;
  // Wait budget: half the modeled job time plus the injected-delay
  // headroom. A delayed attempt overruns it and is cancelled while its
  // engine is still busy.
  options.retry.max_retries = 4;
  options.retry.deadline_slack = 0.5;
  options.retry.min_deadline_sec = 1e-6;
  Hal hal(options);
  FpgaDevice* device = hal.device();
  SmallJob small = MakeSmallJob(&hal, 4'000);
  auto params =
      hal.BuildRegexJobParams(*small.input, small.result.get(), small.config);
  ASSERT_TRUE(params.ok());
  const RetryPolicy& policy = hal.retry_policy();
  const int64_t bound = LiveRecordBound(device);

  const int64_t lost_before = CounterValue("doppio.device.wait_job_lost");
  const int64_t retries_before = CounterValue("doppio.lifecycle.retries");
  const int64_t skipped_before =
      CounterValue("doppio.queue.cancelled_skipped");
  // Waves several times wider than the engines: a resubmitted attempt
  // queues behind the rest of its wave and can expire before dispatch,
  // so the distributor also skips cancelled descriptors.
  constexpr int kWaves = 100;
  constexpr int kJobsPerWave = 24;
  int completed = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<FpgaJob> jobs;
    std::vector<JobOutcome> outcomes(kJobsPerWave);
    for (JobOutcome& outcome : outcomes) {
      auto job = SubmitJobWithRetry(device, *params, policy, &outcome);
      ASSERT_TRUE(job.ok()) << job.status().ToString();
      jobs.push_back(std::move(*job));
    }
    for (size_t j = 0; j < jobs.size(); ++j) {
      Status st = AwaitJobWithRecovery(device, &jobs[j], *params, policy,
                                       &outcomes[j]);
      if (st.ok()) ++completed;
      ASSERT_LE(device->live_jobs(), bound) << "wave " << wave;
      jobs[j].Release();
    }
    ASSERT_LE(device->live_jobs(), bound) << "wave " << wave;
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(CounterValue("doppio.device.wait_job_lost"), lost_before);
  EXPECT_GT(CounterValue("doppio.lifecycle.retries"), retries_before);
  EXPECT_GT(CounterValue("doppio.queue.cancelled_skipped"), skipped_before);

  // Every handle is released; once the device drains, nothing is left.
  device->RunToIdle();
  EXPECT_EQ(device->live_jobs(), 0);
}

TEST(JobReclamationTest, TwoConcurrentWaitersStayBounded) {
  Hal hal(SmallHal());
  FpgaDevice* device = hal.device();
  SmallJob smalls[2] = {MakeSmallJob(&hal, 8), MakeSmallJob(&hal, 8)};
  const int64_t bound = LiveRecordBound(device);
  std::atomic<int64_t> peak{0};
  std::atomic<int> failures{0};
  auto waiter = [&](const SmallJob& small) {
    for (int i = 0; i < 20'000; ++i) {
      auto job = hal.CreateRegexJob(*small.input, small.result.get(),
                                    small.config);
      if (!job.ok() || !job->Wait().ok() || job->status().matches != 2) {
        failures.fetch_add(1);
        return;
      }
      job->Release();
      const int64_t live = device->live_jobs();
      int64_t seen = peak.load();
      while (live > seen && !peak.compare_exchange_weak(seen, live)) {
      }
    }
  };
  std::thread a(waiter, std::cref(smalls[0]));
  std::thread b(waiter, std::cref(smalls[1]));
  a.join();
  b.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(peak.load(), bound);
  EXPECT_EQ(device->live_jobs(), 0);
}

}  // namespace
}  // namespace doppio
