// FpgaJob::Wait(deadline) semantics (satellite of the tracing/metrics PR).
//
// The deadline-bounded busy-wait races the virtual clock against the done
// bit. The audited invariants:
//  * a completion scheduled exactly at the deadline counts as on time
//    (the wait peeks the next event before declaring DeadlineExceeded);
//  * an expired wait never advances the virtual clock past the deadline
//    (the old loop ran the next event first and burned virtual time into
//    the retry budget);
//  * a drained device with the job unfinished reports Unavailable, not a
//    hang;
//  * concurrent waiters with mixed deadlines stay correct (the done bit is
//    re-checked under the sim mutex after the lock-free peek).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hal/hal.h"

namespace doppio {
namespace {

Hal::Options SmallHal() {
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;  // 128 MiB
  options.functional_threads = 2;
  return options;
}

/// Builds the standard 1000-string input / zeroed result pair and submits
/// one "Strasse" job; returns the job handle.
FpgaJob SubmitOneJob(Hal* hal, Bat* input, std::unique_ptr<Bat>* result) {
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(input
                    ->AppendString(i % 5 == 0 ? "Koblenzer Strasse 44"
                                              : "Koblenzer Gasse 44")
                    .ok());
  }
  auto config = hal->CompileConfig("Strasse");
  EXPECT_TRUE(config.ok());
  auto r = Bat::New(ValueType::kInt16, input->count(), hal->bat_allocator());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE((*r)->AppendZeros(input->count()).ok());
  *result = std::move(*r);
  auto job = hal->CreateRegexJob(*input, result->get(), *config);
  EXPECT_TRUE(job.ok()) << job.status().ToString();
  return std::move(*job);
}

TEST(WaitDeadlineTest, ExpiredWaitDoesNotBurnVirtualTimePastDeadline) {
  Hal hal(SmallHal());
  Bat input(ValueType::kString, hal.bat_allocator());
  std::unique_ptr<Bat> result;
  FpgaJob job = SubmitOneJob(&hal, &input, &result);

  // A deadline far below the job's execution time: the wait must expire
  // without running any event past it.
  const SimTime deadline = hal.device()->now() + PicosFromSeconds(1e-9);
  Status st = job.Wait(deadline);
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LE(hal.device()->now(), deadline);
  EXPECT_FALSE(job.Done());

  // The expired wait is recoverable: a plain Wait() finishes the job with
  // the correct result.
  ASSERT_TRUE(job.Wait().ok());
  EXPECT_EQ(job.status().matches, 200);
}

TEST(WaitDeadlineTest, CompletionExactlyAtDeadlineIsOnTime) {
  // Learn the deterministic completion time from a twin system.
  SimTime done_at = 0;
  {
    Hal hal(SmallHal());
    Bat input(ValueType::kString, hal.bat_allocator());
    std::unique_ptr<Bat> result;
    FpgaJob job = SubmitOneJob(&hal, &input, &result);
    ASSERT_TRUE(job.Wait().ok());
    done_at = job.status().done_bit_time;
    ASSERT_GT(done_at, 0);
  }

  // Deadline exactly at the done-bit event: must succeed, not expire.
  {
    Hal hal(SmallHal());
    Bat input(ValueType::kString, hal.bat_allocator());
    std::unique_ptr<Bat> result;
    FpgaJob job = SubmitOneJob(&hal, &input, &result);
    Status st = job.Wait(done_at);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(job.Done());
    EXPECT_EQ(job.status().matches, 200);
  }

  // One picosecond earlier: must expire, with the clock still at or
  // before the deadline.
  {
    Hal hal(SmallHal());
    Bat input(ValueType::kString, hal.bat_allocator());
    std::unique_ptr<Bat> result;
    FpgaJob job = SubmitOneJob(&hal, &input, &result);
    Status st = job.Wait(done_at - 1);
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    EXPECT_LE(hal.device()->now(), done_at - 1);
  }
}

TEST(WaitDeadlineTest, DrainedDeviceReportsJobLost) {
  // A stalled engine swallows the job: the device drains with the done
  // bit unset and the wait must say Unavailable rather than spin.
  Hal::Options options = SmallHal();
  options.device.num_engines = 1;
  options.device.faults.enabled = true;
  options.device.faults.stalled_engine_mask = 0x1;
  Hal hal(options);
  Bat input(ValueType::kString, hal.bat_allocator());
  std::unique_ptr<Bat> result;
  FpgaJob job = SubmitOneJob(&hal, &input, &result);

  Status st = job.Wait(hal.device()->now() + PicosFromSeconds(10.0));
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_FALSE(job.Done());
}

TEST(WaitDeadlineTest, ConcurrentWaitersWithDeadlinesStayCorrect) {
  // Several client threads submit and deadline-wait on their own jobs
  // against one device. The cooperative busy-wait means any thread can
  // drive another thread's completion; every wait must still land OK
  // (generous deadline) with the right match count. Run under TSan in CI.
  Hal hal(SmallHal());
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(input
                    .AppendString(i % 5 == 0 ? "Koblenzer Strasse 44"
                                             : "Koblenzer Gasse 44")
                    .ok());
  }

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  std::vector<int64_t> matches(kThreads * kJobsPerThread, -1);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        auto result =
            Bat::New(ValueType::kInt16, input.count(), hal.bat_allocator());
        ASSERT_TRUE(result.ok());
        ASSERT_TRUE((*result)->AppendZeros(input.count()).ok());
        auto job = hal.CreateRegexJob(input, result->get(), *config);
        ASSERT_TRUE(job.ok()) << job.status().ToString();
        const SimTime deadline =
            hal.device()->now() + PicosFromSeconds(10.0);
        Status st = job->Wait(deadline);
        ASSERT_TRUE(st.ok()) << st.ToString();
        matches[static_cast<size_t>(t * kJobsPerThread + j)] =
            job->status().matches;
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int64_t m : matches) EXPECT_EQ(m, 200);
}

}  // namespace
}  // namespace doppio
