#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "bat/bat.h"
#include "common/random.h"
#include "hal/job.h"
#include "hw/config_compiler.h"
#include "hw/fpga_device.h"
#include "hw/kernel_backend.h"
#include "hw/output_collector.h"
#include "hw/string_reader.h"
#include "regex/dfa_matcher.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

std::unique_ptr<Bat> MakeStrings(const std::vector<std::string>& values) {
  auto bat = std::make_unique<Bat>(ValueType::kString);
  for (const auto& v : values) {
    EXPECT_TRUE(bat->AppendString(v).ok());
  }
  return bat;
}

JobParams MakeJob(const Bat& input, Bat* result,
                  const RegexConfig& config) {
  JobParams params;
  params.offsets = input.tail_data();
  params.heap = input.heap()->data();
  params.result = result->mutable_tail_data();
  params.count = input.count();
  params.offset_width = 4;
  params.heap_bytes = input.heap()->size_bytes();
  params.config = config.vector.bytes();
  return params;
}

TEST(StringReaderTest, BlockStructureAndTraffic) {
  std::vector<std::string> values;
  for (int i = 0; i < 10'000; ++i) {
    values.push_back("row " + std::to_string(i) + " payload padding xyz");
  }
  auto bat = MakeStrings(values);
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(bat->count()).ok());
  DeviceConfig device;
  auto config = CompileRegexConfig("payload", device);
  ASSERT_TRUE(config.ok());
  JobParams params = MakeJob(*bat, &result, *config);

  StringReader reader(params);
  int64_t strings_seen = 0;
  int64_t blocks = 0;
  while (reader.HasMore()) {
    auto block = reader.ReadBlock();
    ASSERT_TRUE(block.ok());
    strings_seen += block->num_strings;
    ++blocks;
    EXPECT_LE(block->num_strings, kStringsPerBlock);
    EXPECT_GT(block->offset_lines, 0);
    EXPECT_GT(block->heap_lines, 0);
    // Heap traffic must cover at least the payload bytes.
    EXPECT_GE(block->heap_lines * kCacheLineBytes, block->string_bytes);
    // Strings come back in input order.
    EXPECT_EQ(block->strings[0],
              values[static_cast<size_t>(block->first_string)]);
  }
  EXPECT_EQ(strings_seen, 10'000);
  EXPECT_EQ(blocks, (10'000 + kStringsPerBlock - 1) / kStringsPerBlock);
}

TEST(OutputCollectorTest, PacksResultsInOrder) {
  auto bat = MakeStrings({"a", "b", "c"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(3).ok());
  DeviceConfig device;
  auto config = CompileRegexConfig("a", device);
  ASSERT_TRUE(config.ok());
  JobParams params = MakeJob(*bat, &result, *config);
  OutputCollector collector(params);
  ASSERT_TRUE(collector.Append(1).ok());
  ASSERT_TRUE(collector.Append(0).ok());
  ASSERT_TRUE(collector.Append(7).ok());
  EXPECT_FALSE(collector.Append(9).ok());  // overflow
  EXPECT_EQ(result.GetInt16(0), 1);
  EXPECT_EQ(result.GetInt16(1), 0);
  EXPECT_EQ(result.GetInt16(2), 7);
  EXPECT_EQ(collector.matches(), 2);
  EXPECT_EQ(OutputCollector::TotalResultLines(33), 2);
}

TEST(FpgaDeviceTest, ExecutesJobFunctionally) {
  auto bat = MakeStrings({
      "John|Smith|44 Koblenzer Strasse|60327|Frankfurt",
      "Anna|Meier|7 Berner Gasse|10115|Berlin",
      "Karl|Huber|1 Wiener Strasse|80331|Muenchen",
  });
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(bat->count()).ok());

  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  auto job = fpga.Submit(MakeJob(*bat, &result, *config));
  ASSERT_TRUE(job.ok());
  auto finish = fpga.WaitForJob(*job);
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();

  EXPECT_NE(result.GetInt16(0), 0);
  EXPECT_EQ(result.GetInt16(1), 0);
  EXPECT_NE(result.GetInt16(2), 0);
  const JobStatus* st = fpga.status(*job);
  EXPECT_EQ(st->matches, 2);
  EXPECT_EQ(st->strings_processed, 3);
  EXPECT_GT(st->finish_time, st->start_time);
}

TEST(FpgaDeviceTest, ResultsMatchDfaOnGeneratedData) {
  AddressDataOptions opts;
  opts.num_records = 20'000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");

  DeviceConfig device;
  FpgaDevice fpga(device);
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    Bat result(ValueType::kInt16);
    ASSERT_TRUE(result.AppendZeros(strings.count()).ok());
    auto config = CompileRegexConfig(QueryPattern(q), device);
    ASSERT_TRUE(config.ok()) << QueryName(q);
    auto job = fpga.Submit(MakeJob(strings, &result, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());

    auto dfa = DfaMatcher::Compile(QueryPattern(q));
    ASSERT_TRUE(dfa.ok());
    for (int64_t i = 0; i < strings.count(); ++i) {
      MatchResult sw = (*dfa)->Find(strings.GetString(i));
      EXPECT_EQ(result.GetInt16(i) != 0, sw.matched)
          << QueryName(q) << " row " << i;
    }
  }
}

TEST(FpgaDeviceTest, FourConcurrentJobsUseFourEngines) {
  auto bat = MakeStrings(std::vector<std::string>(
      1000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  for (int i = 0; i < 4; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();
  std::set<int64_t> engines;
  for (JobId id : jobs) {
    EXPECT_EQ(fpga.status(id)->done.load(), 1u);
    engines.insert(fpga.status(id)->engine_id);
  }
  EXPECT_EQ(engines.size(), 4u);  // all four engines were used
}

TEST(FpgaDeviceTest, DifferentQueriesRunConcurrently) {
  // Paper §3: "All engines operate concurrently and can process different
  // queries" — four jobs with four *different* configuration vectors.
  AddressDataOptions opts;
  opts.num_records = 4000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");

  DeviceConfig device;
  FpgaDevice fpga(device);
  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  std::vector<EvalQuery> queries = {EvalQuery::kQ1, EvalQuery::kQ2,
                                    EvalQuery::kQ3, EvalQuery::kQ4};
  for (EvalQuery q : queries) {
    auto config = CompileRegexConfig(QueryPattern(q), device);
    ASSERT_TRUE(config.ok());
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(strings.count()).ok());
    auto job = fpga.Submit(MakeJob(strings, results.emplace_back(
                                                 std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();

  std::set<int64_t> engines;
  for (JobId id : jobs) engines.insert(fpga.status(id)->engine_id);
  EXPECT_EQ(engines.size(), 4u);  // one engine per query

  // Each result matches its own query's ground truth.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto dfa = DfaMatcher::Compile(QueryPattern(queries[qi]));
    ASSERT_TRUE(dfa.ok());
    for (int64_t i = 0; i < strings.count(); ++i) {
      EXPECT_EQ(results[qi]->GetInt16(i) != 0,
                (*dfa)->Matches(strings.GetString(i)))
          << QueryName(queries[qi]) << " row " << i;
    }
  }
}

TEST(FpgaDeviceTest, SerialAndHostParallelFunctionalPathsAgree) {
  // The serial functional pass (one execution for the whole job) and the
  // host-parallel one (one execution per worker, each matching a range of
  // every block) must produce identical result BATs.
  AddressDataOptions opts;
  // Above RegexEngine::kParallelThreshold so the pool-enabled device
  // takes the host-parallel path; the pool-less one stays serial.
  opts.num_records = 70'000;
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");
  DeviceConfig device;
  auto config =
      CompileRegexConfig(QueryPattern(EvalQuery::kQ2), device);
  ASSERT_TRUE(config.ok());

  Bat serial(ValueType::kInt16);
  ASSERT_TRUE(serial.AppendZeros(strings.count()).ok());
  {
    FpgaDevice fpga(device);  // no thread pool: serial path
    auto job = fpga.Submit(MakeJob(strings, &serial, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());
  }

  Bat parallel(ValueType::kInt16);
  ASSERT_TRUE(parallel.AppendZeros(strings.count()).ok());
  {
    ThreadPool pool(3);
    FpgaDevice fpga(device, nullptr, &pool);
    auto job = fpga.Submit(MakeJob(strings, &parallel, *config));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE(fpga.WaitForJob(*job).ok());
  }
  for (int64_t i = 0; i < strings.count(); ++i) {
    EXPECT_EQ(serial.GetInt16(i), parallel.GetInt16(i)) << i;
  }
}

/// Scoped environment override restoring the prior value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_value_ = old != nullptr;
    if (had_value_) saved_ = old;
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

TEST(FpgaDeviceTest, ForcedScalarBackendChangesNothingTheJobReports) {
  // The functional pass runs whichever host backend the registry picks.
  // Pinning it to the scalar reference must leave every job report as
  // is: result bytes, the virtual clock, the traffic and the PU kernel
  // class — for Q1-Q4 and for a 3-member set job, each on a fresh device.
  AddressDataOptions opts;
  opts.num_records = 10'000;  // two reader blocks
  auto table = GenerateAddressTable(opts, "addr");
  ASSERT_TRUE(table.ok());
  const Bat& strings = *(*table)->GetColumn("address_string");
  DeviceConfig device;

  struct Job {
    std::string name;
    RegexConfig config;
    int streams = 1;
  };
  std::vector<Job> jobs;
  for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                      EvalQuery::kQ4}) {
    auto config = CompileRegexConfig(QueryPattern(q), device);
    ASSERT_TRUE(config.ok()) << QueryName(q);
    jobs.push_back(Job{QueryName(q), std::move(*config), 1});
  }
  std::vector<RegexConfig> members;
  std::vector<const TokenNfa*> nfas;
  for (const char* pattern : {"Strasse", "Gasse", "Berner"}) {
    auto config = CompileRegexConfig(pattern, device);
    ASSERT_TRUE(config.ok()) << pattern;
    members.push_back(std::move(*config));
  }
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  auto set = CompileRegexSetConfig(nfas, device);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  jobs.push_back(Job{"set of 3", std::move(*set), 3});

  struct Report {
    std::vector<uint8_t> result;
    SimTime finish_time = 0;
    int64_t bytes_streamed = 0;
    std::string pu_kernel;
  };
  auto run = [&](const Job& job, const char* forced) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", forced);
    const int64_t values = strings.count() * job.streams;
    Bat result(ValueType::kInt16);
    EXPECT_TRUE(result.AppendZeros(values).ok());
    JobParams params = MakeJob(strings, &result, job.config);
    params.streams = job.streams;
    FpgaDevice fpga(device);
    auto id = fpga.Submit(std::move(params));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(fpga.WaitForJob(*id).ok());
    const JobStatus& status = *fpga.status(*id);
    const uint8_t* bytes = result.tail_data();
    return Report{std::vector<uint8_t>(bytes, bytes + values * 2),
                  status.finish_time, status.bytes_streamed,
                  status.pu_kernel};
  };

  int accelerated = 0;
  for (const Job& job : jobs) {
    {
      ScopedEnv env("DOPPIO_FORCE_BACKEND", nullptr);
      auto program = CompiledPuProgram::Compile(job.config.vector, device);
      ASSERT_TRUE(program.ok()) << job.name;
      if (BackendRegistry::Global().ChooseHost(**program).id() !=
          BackendId::kCpuScalar) {
        ++accelerated;
      }
    }
    const Report chosen = run(job, nullptr);
    const Report scalar = run(job, "scalar");
    EXPECT_EQ(chosen.result, scalar.result) << job.name;
    EXPECT_EQ(chosen.finish_time, scalar.finish_time) << job.name;
    EXPECT_EQ(chosen.bytes_streamed, scalar.bytes_streamed) << job.name;
    EXPECT_EQ(chosen.pu_kernel, scalar.pu_kernel) << job.name;
    EXPECT_GT(chosen.finish_time, 0) << job.name;
  }
  // The comparison means something only if some job left the scalar
  // kernels when the backend was not forced.
  EXPECT_GT(accelerated, 0);
}

TEST(FpgaDeviceTest, FifthJobQueuesBehindBusyEngines) {
  auto bat = MakeStrings(std::vector<std::string>(
      5000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  std::vector<JobId> jobs;
  for (int i = 0; i < 5; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  fpga.RunToIdle();
  // The fifth job waited for an engine: positive queueing delay.
  EXPECT_GT(fpga.status(jobs[4])->QueueSeconds(), 0.0);
  EXPECT_EQ(fpga.status(jobs[0])->QueueSeconds(),
            fpga.status(jobs[0])->QueueSeconds());
}

TEST(FpgaDeviceTest, ThroughputScalingMatchesFig8Shape) {
  // Single-engine effective bandwidth is below the QPI cap; two engines
  // saturate the link; more engines add nothing (Fig. 8).
  auto bat = MakeStrings(std::vector<std::string>(
      50'000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));

  auto run_with_engines = [&](int engines) {
    DeviceConfig device;
    device.num_engines = engines;
    FpgaDevice fpga(device);
    auto config = CompileRegexConfig("Strasse", device);
    EXPECT_TRUE(config.ok());
    std::vector<std::unique_ptr<Bat>> results;
    for (int i = 0; i < engines; ++i) {
      auto result = std::make_unique<Bat>(ValueType::kInt16);
      EXPECT_TRUE(result->AppendZeros(bat->count()).ok());
      auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                               std::move(result)).get(),
                                     *config));
      EXPECT_TRUE(job.ok());
    }
    SimTime end = fpga.RunToIdle();
    // Aggregate throughput = jobs / makespan.
    return static_cast<double>(engines) / SecondsFromPicos(end);
  };

  double one = run_with_engines(1);
  double two = run_with_engines(2);
  double four = run_with_engines(4);
  EXPECT_GT(two, one * 1.05);   // slight gain from hiding latency
  EXPECT_LT(two, one * 1.35);
  EXPECT_NEAR(four, two, two * 0.10);  // flat beyond two engines
}

TEST(FpgaDeviceTest, TraceRecordsSchedulingTimeline) {
  // The per-job virtual-time stamps that obs::JobTraceRecord exports.
  auto bat = MakeStrings(std::vector<std::string>(
      20'000, "John|Smith|44 Koblenzer Strasse|60327|Frankfurt"));
  DeviceConfig device;
  FpgaDevice fpga(device);
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());

  std::vector<std::unique_ptr<Bat>> results;
  std::vector<FpgaJob> jobs;  // held so the status blocks outlive the run
  for (int i = 0; i < 2; ++i) {
    auto result = std::make_unique<Bat>(ValueType::kInt16);
    ASSERT_TRUE(result->AppendZeros(bat->count()).ok());
    auto job = fpga.Submit(MakeJob(*bat, results.emplace_back(
                                             std::move(result)).get(),
                                   *config));
    ASSERT_TRUE(job.ok());
    jobs.emplace_back(&fpga, *job);
  }
  fpga.RunToIdle();

  // Causality on the virtual clock.
  for (const FpgaJob& job : jobs) {
    ASSERT_TRUE(job.Done());
    const JobStatus& status = job.status();
    EXPECT_LE(status.enqueue_time, status.dispatch_time);
    EXPECT_LE(status.dispatch_time, status.start_time);
    EXPECT_LT(status.start_time, status.finish_time);
  }
  // The two jobs ran on different engines.
  EXPECT_NE(jobs[0].status().engine_id, jobs[1].status().engine_id);
}

TEST(FpgaDeviceTest, RejectsBadJobs) {
  DeviceConfig device;
  FpgaDevice fpga(device);
  JobParams params;
  params.count = -1;
  EXPECT_FALSE(fpga.Submit(std::move(params)).ok());

  JobParams params2;
  params2.count = 10;  // null pointers
  params2.config = {0xFF};
  EXPECT_FALSE(fpga.Submit(std::move(params2)).ok());
}

TEST(FpgaDeviceTest, EnforcesSharedMemoryBounds) {
  SharedArena arena(4 * kSharedPageBytes);
  DeviceConfig device;
  FpgaDevice fpga(device, &arena);

  // BAT in plain malloc memory: the FPGA must refuse to touch it.
  auto bat = MakeStrings({"Strasse"});
  Bat result(ValueType::kInt16);
  ASSERT_TRUE(result.AppendZeros(1).ok());
  auto config = CompileRegexConfig("Strasse", device);
  ASSERT_TRUE(config.ok());
  auto job = fpga.Submit(MakeJob(*bat, &result, *config));
  EXPECT_FALSE(job.ok());
  EXPECT_TRUE(job.status().IsInvalidArgument());
}

}  // namespace
}  // namespace doppio
