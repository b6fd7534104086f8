#include "harness.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

namespace perfbench {

using doppio::QueryStats;
using doppio::Status;

const char* ClockName(Clock clock) {
  switch (clock) {
    case Clock::kHost:
      return "host";
    case Clock::kService:
      return "service";
    case Clock::kVirtual:
      return "virtual";
    case Clock::kNone:
      return "none";
  }
  return "?";
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench:
      return "bench";
    case Layer::kSql:
      return "sql";
    case Layer::kDb:
      return "db";
    case Layer::kSched:
      return "sched";
    case Layer::kStore:
      return "store";
  }
  return "?";
}

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload hudf_sql|tenants|stream_ingest "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH] "
               "[--inject-wrong-expected]\n");
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-expected") {
      args->inject_wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      PrintUsage();
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        PrintUsage();
        return false;
      }
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      PrintUsage();
      return false;
    }
    if (end != nullptr && *end != '\0') {
      PrintUsage();
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0)) {
    PrintUsage();
    return false;
  }
  return true;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::string MetricToken(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

// ---------------------------------------------------------------------------
// Catalogs

const std::vector<MetricSpec>& EndToEndCatalog() {
  static const std::vector<MetricSpec> catalog = {
      {"setup_s", "s", Clock::kHost},
      {"qps_host", "1/s", Clock::kHost},
      {"latency_host_p50_ms", "ms", Clock::kHost},
      {"latency_host_p99_ms", "ms", Clock::kHost},
      {"latency_service_p50_ms", "ms", Clock::kService},
      {"latency_service_p99_ms", "ms", Clock::kService},
      {"device_s_per_query", "s", Clock::kVirtual},
      {"ingest_rows_per_s", "1/s", Clock::kHost},
      {"peak_rss_mb", "MiB", Clock::kHost},
      {"failed_frac", "ratio", Clock::kNone},
  };
  return catalog;
}

const std::vector<std::string>& ScoredEndToEnd() {
  // ingest_rows_per_s is 0 on hudf_sql (no ingest) and failed_frac is 0
  // on every passing run; a scored metric must never be 0, so both are
  // printed but left out of BENCHMARK.json. Failures still reach the
  // scorer through the result's "failed" count.
  static const std::vector<std::string> scored = {
      "setup_s",
      "qps_host",
      "latency_host_p50_ms",
      "latency_host_p99_ms",
      "latency_service_p50_ms",
      "latency_service_p99_ms",
      "device_s_per_query",
      "peak_rss_mb",
  };
  return scored;
}

const std::vector<MetricSpec>& PerLayerCatalog() {
  static const std::vector<MetricSpec> catalog = {
      {"sql.parse_us", "us", Clock::kHost},
      {"sql.execute_ms", "ms", Clock::kHost},
      {"db.database_ms", "ms", Clock::kHost},
      {"db.udf_sw_us", "us", Clock::kHost},
      {"db.strategy.like", "count", Clock::kNone},
      {"db.strategy.fpga", "count", Clock::kNone},
      {"db.strategy.hybrid", "count", Clock::kNone},
      {"db.strategy.auto_fpga", "count", Clock::kNone},
      {"db.strategy.auto_hybrid", "count", Clock::kNone},
      {"db.strategy.fpga_set", "count", Clock::kNone},
      {"db.strategy.fpga_cache", "count", Clock::kNone},
      {"db.strategy.fpga_cache_prefix", "count", Clock::kNone},
      {"db.strategy.sched_cpu", "count", Clock::kNone},
      {"db.strategy.sched_cpu_cache_prefix", "count", Clock::kNone},
      {"db.strategy.software", "count", Clock::kNone},
      {"db.strategy.fpga_streamed", "count", Clock::kNone},
      {"db.strategy.other", "count", Clock::kNone},
      {"regex.config_gen_us", "us", Clock::kHost},
      {"hal.hal_us", "us", Clock::kHost},
      {"hw.device_ms", "ms", Clock::kVirtual},
      {"hw.sim_host_ms", "ms", Clock::kHost},
      {"hw.functional_mbps", "MB/s", Clock::kHost},
      {"hw.pool.slices", "count", Clock::kNone},
      {"hw.pool.steals", "count", Clock::kNone},
      {"hw.pool.row_imbalance", "ratio", Clock::kNone},
      {"hw.cpu_route_ms", "ms", Clock::kHost},
      {"hw.host_backend.cpu_scalar", "count", Clock::kNone},
      {"hw.host_backend.cpu_simd", "count", Clock::kNone},
      {"hw.host_backend.cpu_dfa", "count", Clock::kNone},
      {"hw.host_backend.fpga_sim", "count", Clock::kNone},
      {"sched.submit_us", "us", Clock::kHost},
      {"sched.wait_ms", "ms", Clock::kHost},
      {"sched.waves_per_query", "ratio", Clock::kNone},
      {"sched.batch_width_mean", "ratio", Clock::kNone},
      {"sched.set_width_mean", "ratio", Clock::kNone},
      {"sched.route.fpga", "share", Clock::kNone},
      {"sched.route.cpu_program", "share", Clock::kNone},
      {"sched.route.cpu_dfa", "share", Clock::kNone},
      {"sched.route.cache", "share", Clock::kNone},
      {"sched.program_cache.hit_ratio", "ratio", Clock::kNone},
      {"sched.result_cache.hit_ratio", "ratio", Clock::kNone},
      {"sched.result_cache.partial_hits", "count", Clock::kNone},
      {"sched.result_cache.evictions", "count", Clock::kNone},
      {"sched.result_cache.invalidations", "count", Clock::kNone},
      {"sched.result_cache.incomplete_skipped", "count", Clock::kNone},
      {"sched.rejected", "count", Clock::kNone},
      {"store.append_us", "us", Clock::kHost},
      {"store.sealed_segments", "count", Clock::kNone},
      {"store.page_ins", "count", Clock::kNone},
      {"store.page_in_bytes_per_scan", "bytes", Clock::kNone},
      {"store.page_in_ms", "ms", Clock::kVirtual},
      {"store.windows_per_scan", "ratio", Clock::kNone},
      {"store.window_cache_hit_ratio", "ratio", Clock::kNone},
      {"store.spill_bytes_per_user_byte", "ratio", Clock::kNone},
      {"store.resident_peak_frac", "ratio", Clock::kNone},
      {"mem.arena_peak_bytes", "bytes", Clock::kNone},
      {"trace.self_ms_per_op.bench", "ms", Clock::kHost},
      {"trace.self_ms_per_op.sql", "ms", Clock::kHost},
      {"trace.self_ms_per_op.db", "ms", Clock::kHost},
      {"trace.self_ms_per_op.sched", "ms", Clock::kHost},
      {"trace.self_ms_per_op.store", "ms", Clock::kHost},
      {"trace.spans", "count", Clock::kNone},
      {"trace.qps_untraced", "1/s", Clock::kHost},
      {"trace.qps_traced", "1/s", Clock::kHost},
      {"trace.overhead_frac", "ratio", Clock::kHost},
  };
  return catalog;
}

// ---------------------------------------------------------------------------
// Spans

void SpanLog::BeginOp(int64_t op) {
  if (!enabled_) return;
  op_ = op;
  root_ = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{"op", Layer::kBench, NowSeconds(), 0, -1, op});
}

void SpanLog::EndOp() {
  if (!enabled_ || root_ < 0) return;
  spans_[static_cast<size_t>(root_)].end = NowSeconds();
  root_ = -1;
}

size_t SpanLog::Open(Layer layer, const char* name) {
  spans_.push_back(Span{name, layer, NowSeconds(), 0, root_, op_});
  return spans_.size() - 1;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  // Children of one root are recorded in order and never overlap (the
  // client is one thread), so a root's covered time is the plain sum of
  // its children's durations.
  std::vector<double> child_time(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (Layer layer : {Layer::kBench, Layer::kSql, Layer::kDb, Layer::kSched,
                      Layer::kStore}) {
    self[LayerName(layer)] = 0;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[LayerName(span.layer)] += span.end - span.start - child_time[i];
  }
  return self;
}

Status SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const double t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%" PRId64
                 ",\"op\":%" PRId64 "}%s\n",
                 i, s.name, LayerName(s.layer), (s.start - t0) * 1e6,
                 (s.end - t0) * 1e6, s.parent, s.op,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Phase ledger

double ServiceSeconds(const QueryStats& stats) {
  return stats.database_seconds + stats.udf_software_seconds +
         stats.config_gen_seconds + stats.hal_seconds + stats.hw_seconds;
}

void PhaseLedger::Add(const QueryStats& stats) {
  ++queries;
  database_s += stats.database_seconds;
  udf_software_s += stats.udf_software_seconds;
  config_gen_s += stats.config_gen_seconds;
  hal_s += stats.hal_seconds;
  hw_s += stats.hw_seconds;
  sim_host_s += stats.sim_host_seconds;
  page_in_s += stats.page_in_seconds;
  windows += stats.windows_streamed;
  functional_bytes += stats.functional_bytes;
  functional_s += stats.functional_seconds;
  hw_picos += std::llround(stats.hw_seconds * 1e12);
  ++strategies[MetricToken(stats.strategy)];
}

void PhaseLedger::Emit(MetricValues* out) const {
  const double n = static_cast<double>(std::max<int64_t>(queries, 1));
  (*out)["db.database_ms"] = database_s / n * 1e3;
  (*out)["db.udf_sw_us"] = udf_software_s / n * 1e6;
  (*out)["regex.config_gen_us"] = config_gen_s / n * 1e6;
  (*out)["hal.hal_us"] = hal_s / n * 1e6;
  (*out)["hw.device_ms"] = hw_s / n * 1e3;
  (*out)["hw.sim_host_ms"] = sim_host_s / n * 1e3;
  (*out)["hw.functional_mbps"] =
      functional_s > 0 ? static_cast<double>(functional_bytes) / 1e6 /
                             functional_s
                       : 0;
  std::set<std::string> known;
  for (const MetricSpec& spec : PerLayerCatalog()) known.insert(spec.name);
  for (const auto& [token, count] : strategies) {
    std::string name = "db.strategy." + token;
    if (known.count(name) == 0) name = "db.strategy.other";
    (*out)[name] += static_cast<double>(count);
  }
}

// ---------------------------------------------------------------------------
// Timed loop

namespace {

// Robust against stalls of the shared host: qps_host is the median over
// equal time slices of the timed region, and each percentile the median
// over consecutive runs ("chunks") of samples. A p99 chunk holds at least
// 1000 samples, ten beyond its p99, and there are at most kSlices of them.
// A p50 chunk needs far fewer, and the host's speed drifts over seconds,
// so the p50 takes its median over up to kMedianChunks shorter chunks.
constexpr int kSlices = 5;
constexpr size_t kSamplesPerChunk = 1000;
constexpr size_t kMedianChunks = 25;
constexpr size_t kSamplesPerMedianChunk = 50;

struct Slice {
  int64_t ops = 0;
  double end = 0;      // when its last step returned
  double seconds = 0;  // from the previous slice's end to its own
};

struct PhaseResult {
  std::vector<double> host_s;
  std::vector<double> service_s;
  std::vector<Slice> slices = std::vector<Slice>(kSlices);
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t steps = 0;
  double seconds = 0;
  double device_s = 0;
  int64_t queries = 0;
  int64_t appended_rows = 0;
  double append_seconds = 0;
  std::map<std::string, int64_t> fingerprint;
};

PhaseResult RunPhase(Workload* workload, SpanLog* spans, double seconds) {
  PhaseResult out;
  workload->BeginTimed();
  const double start = NowSeconds();
  while (NowSeconds() - start < seconds) {
    StepOutcome step;
    spans->BeginOp(out.steps);
    workload->Step(out.steps, spans, &step);
    spans->EndOp();
    const double now = NowSeconds();
    Slice& slice = out.slices[std::min(
        kSlices - 1, static_cast<int>((now - start) / seconds * kSlices))];
    slice.end = now;
    slice.ops += static_cast<int64_t>(step.host_s.size());
    out.host_s.insert(out.host_s.end(), step.host_s.begin(), step.host_s.end());
    out.service_s.insert(out.service_s.end(), step.service_s.begin(),
                         step.service_s.end());
    out.attempted += step.attempted;
    out.failed += step.failed;
    ++out.steps;
    if (out.steps == kFingerprintSteps) {
      out.fingerprint = workload->Fingerprint();
    }
  }
  out.seconds = NowSeconds() - start;
  double previous_end = start;
  for (Slice& slice : out.slices) {
    if (slice.end == 0) continue;  // no step ended inside it
    slice.seconds = slice.end - previous_end;
    previous_end = slice.end;
  }
  out.device_s = workload->DeviceSecondsSinceBegin();
  out.queries = workload->queries();
  out.appended_rows = workload->appended_rows();
  out.append_seconds = workload->append_seconds();
  return out;
}

/// Chunks the time-ordered `samples` are split into for the q-th
/// percentile.
size_t Chunks(size_t samples, double q) {
  if (q <= 0.5) {
    return std::clamp<size_t>(samples / kSamplesPerMedianChunk, 1,
                              kMedianChunks);
  }
  return std::clamp<size_t>(samples / kSamplesPerChunk, 1, kSlices);
}

/// Median over the chunks of each chunk's q-th percentile.
double ChunkedPercentile(const std::vector<double>& samples, double q) {
  const size_t chunks = Chunks(samples.size(), q);
  std::vector<double> per_chunk;
  const size_t n = samples.size();
  for (size_t i = 0; i < chunks; ++i) {
    per_chunk.push_back(
        Percentile(std::vector<double>(samples.begin() + i * n / chunks,
                                       samples.begin() + (i + 1) * n / chunks),
                   q));
  }
  return Median(per_chunk);
}

/// Median over the slices of operations completed per host second.
double QpsHost(const PhaseResult& run) {
  std::vector<double> rates;
  for (const Slice& slice : run.slices) {
    if (slice.seconds > 0) {
      rates.push_back(static_cast<double>(slice.ops) / slice.seconds);
    }
  }
  return Median(rates);
}

MetricValues EndToEnd(const PhaseResult& run, double setup_s) {
  MetricValues m;
  m["setup_s"] = setup_s;
  m["qps_host"] = QpsHost(run);
  m["latency_host_p50_ms"] = ChunkedPercentile(run.host_s, 0.50) * 1e3;
  m["latency_host_p99_ms"] = ChunkedPercentile(run.host_s, 0.99) * 1e3;
  m["latency_service_p50_ms"] = ChunkedPercentile(run.service_s, 0.50) * 1e3;
  m["latency_service_p99_ms"] = ChunkedPercentile(run.service_s, 0.99) * 1e3;
  m["device_s_per_query"] =
      run.device_s / static_cast<double>(std::max<int64_t>(run.queries, 1));
  m["ingest_rows_per_s"] =
      run.append_seconds > 0
          ? static_cast<double>(run.appended_rows) / run.append_seconds
          : 0;
  m["peak_rss_mb"] = PeakRssMb();
  m["failed_frac"] =
      static_cast<double>(run.failed) /
      static_cast<double>(std::max<int64_t>(run.attempted, 1));
  return m;
}

const MetricSpec* FindSpec(const std::vector<MetricSpec>& catalog,
                           const std::string& name) {
  for (const MetricSpec& spec : catalog) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void PrintMetricLine(const char* prefix, const MetricSpec& spec,
                     double value, const std::string& extra) {
  std::printf("%s %-40s %.10g %s clock=%s%s\n", prefix, spec.name, value,
              spec.unit, ClockName(spec.clock), extra.c_str());
}

std::string SampleNote(size_t samples, double q) {
  // Nearest-rank percentile q leaves floor((1 - q) n) samples strictly
  // beyond it in each chunk of n samples.
  const size_t chunks = Chunks(samples, q);
  const int percent = static_cast<int>(std::lround(q * 100));
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                " samples=%zu chunks=%zu beyond_p%d_per_chunk=%zu", samples,
                chunks, percent, samples / chunks * (100 - percent) / 100);
  return buf;
}

void PrintFingerprint(const Args& args, const PhaseResult& run) {
  std::printf("fingerprint {\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"steps\":%" PRId64 ",\"complete\":%s",
              args.workload.c_str(), args.seed, kFingerprintSteps,
              run.fingerprint.empty() ? "false" : "true");
  for (const auto& [key, value] : run.fingerprint) {
    std::printf(",\"%s\":%" PRId64, key.c_str(), value);
  }
  std::printf("}\n");
}

}  // namespace

int RunBenchmark(const Args& args) {
  WorkloadFactory factory;
  if (args.workload == "hudf_sql") {
    factory = MakeHudfSql;
  } else if (args.workload == "tenants") {
    factory = MakeTenants;
  } else if (args.workload == "stream_ingest") {
    factory = MakeStreamIngest;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Set-up is repeated and its median reported, so one slow set-up
  // (page faults, a noisy neighbour) does not move setup_s.
  constexpr int kSetups = 5;
  std::vector<double> setup_times;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetups; ++i) {
    workload.reset();
    std::unique_ptr<Workload> candidate = factory(args);
    const double start = NowSeconds();
    Status st = candidate->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_times.push_back(NowSeconds() - start);
    workload = std::move(candidate);
  }
  const double setup_s = Median(setup_times);

  std::printf("perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d loop=closed %s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, workload->ThreadSummary().c_str());

  // A traced run splits its time: an untraced half for the overhead
  // baseline, then a traced half on a fresh set-up.
  SpanLog untraced_spans;
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  PhaseResult run = RunPhase(workload.get(), &untraced_spans, phase_seconds);
  int64_t divergent = workload->divergent_rows();
  const MetricValues e2e = EndToEnd(run, setup_s);

  const char* e2e_prefix = args.trace ? "untraced-metric" : "metric";
  for (const MetricSpec& spec : EndToEndCatalog()) {
    std::string extra;
    const double q = std::strstr(spec.name, "_p50_") != nullptr ? 0.50 : 0.99;
    if (std::strstr(spec.name, "latency_host_p") != nullptr) {
      extra = SampleNote(run.host_s.size(), q);
    } else if (std::strstr(spec.name, "latency_service_p") != nullptr) {
      extra = SampleNote(run.service_s.size(), q);
    } else if (std::strcmp(spec.name, "setup_s") == 0) {
      extra = " setups=" + std::to_string(kSetups);
    }
    PrintMetricLine(e2e_prefix, spec, e2e.at(spec.name), extra);
  }

  MetricValues layers;
  PhaseResult traced;
  int64_t attempted = run.attempted;
  int64_t failed = run.failed;
  const PhaseResult* fingerprint_run = &run;
  if (args.trace) {
    workload.reset();
    workload = factory(args);
    if (Status st = workload->Setup(); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    SpanLog spans;
    spans.set_enabled(true);
    traced = RunPhase(workload.get(), &spans, phase_seconds);
    fingerprint_run = &traced;
    divergent += workload->divergent_rows();
    attempted += traced.attempted;
    failed += traced.failed;

    for (const MetricSpec& spec : PerLayerCatalog()) layers[spec.name] = 0;
    workload->EmitLayers(&layers);
    const double steps =
        static_cast<double>(std::max<int64_t>(traced.steps, 1));
    for (const auto& [layer, seconds] : spans.SelfSecondsByLayer()) {
      layers["trace.self_ms_per_op." + layer] = seconds / steps * 1e3;
    }
    const double qps_untraced = e2e.at("qps_host");
    const double qps_traced = QpsHost(traced);
    layers["trace.spans"] = static_cast<double>(spans.size());
    layers["trace.qps_untraced"] = qps_untraced;
    layers["trace.qps_traced"] = qps_traced;
    layers["trace.overhead_frac"] =
        qps_untraced > 0 ? (qps_untraced - qps_traced) / qps_untraced : 0;
    if (layers.size() != PerLayerCatalog().size()) {
      for (const auto& [name, value] : layers) {
        if (FindSpec(PerLayerCatalog(), name) == nullptr) {
          std::fprintf(stderr, "metric '%s' is not in the catalog\n",
                       name.c_str());
        }
      }
      return 1;
    }
    for (const MetricSpec& spec : PerLayerCatalog()) {
      PrintMetricLine("layer", spec, layers.at(spec.name), "");
    }
    if (!args.spans_out.empty()) {
      if (Status st = spans.WriteJson(args.spans_out); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("spans written to %s\n", args.spans_out.c_str());
    }
  }

  PrintFingerprint(args, *fingerprint_run);
  std::printf("correctness divergent_rows=%" PRId64 " failed_ops=%" PRId64
              " attempted_ops=%" PRId64 "\n",
              divergent, failed, attempted);
  const bool correct = divergent == 0 && failed == 0 && attempted > 0;

  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", std::max<int64_t>(attempted, 1),
              failed);
  bool first = true;
  auto emit = [&](const MetricSpec& spec, double value) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec.name, value, spec.unit);
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& spec : PerLayerCatalog()) {
      emit(spec, layers.at(spec.name));
    }
  } else {
    for (const std::string& name : ScoredEndToEnd()) {
      emit(*FindSpec(EndToEndCatalog(), name), e2e.at(name));
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
