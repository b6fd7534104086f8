// tenants — the multi-tenant service. Four sessions share one
// QueryScheduler (result cache, set compilation and cost routing on) over
// a two-device pool; each session keeps exactly one query outstanding and
// the single client thread waits on them in turn (a closed loop). Patterns
// follow a Zipf law over a pool holding hot repeats, distinct same-column
// patterns, fresh literals, one pattern too large for the device and a
// column small enough to always route to the CPU. Every few steps
// AppendToColumn grows the big column, which invalidates its cached
// blocks — the write side of the same cache layer. Sharing decides the
// cost here: program and result caches, prefix-tail reuse, coalescing,
// set scans, CPU routes and pool sharding.
#include <cctype>
#include <set>

#include "common/stopwatch.h"
#include "db/column_store.h"
#include "harness.h"
#include "hw/kernel_backend.h"
#include "hw/pu_kernel.h"
#include "sched/scheduler.h"
#include "support.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using doppio::Status;
using doppio::sched::Route;

constexpr int64_t kBigRows = 16'000;
constexpr int64_t kSmallRows = 200;  // <= cpu_route_max_rows: always CPU
constexpr int kSessions = 4;
constexpr int kAppendEvery = 8;       // steps between appends
constexpr int64_t kBatchRows = 8;     // rows per append
constexpr int kDistinctBatches = 8;   // appended batches cycle through these
constexpr int kFreshLiterals = 32;
constexpr int kFunctionalThreads = 1;
constexpr int kCpuThreads = 1;
constexpr int kDevices = 2;
constexpr double kZipfExponent = 1.0;
constexpr int kZipfRound = 64;  // draws per round with the exact Zipf mix

/// One slot of the Zipf-ranked pattern pool.
struct PoolEntry {
  bool small = false;  // scans the small column instead of the big one
  std::vector<std::string> patterns;
  size_t next = 0;  // next pattern handed out
};

class Tenants : public Workload {
 public:
  explicit Tenants(const Args& args) : args_(args) {}

  Status Setup() override {
    doppio::Hal::Options hal_options;
    hal_options.shared_memory_bytes = int64_t{256} << 20;
    hal_options.num_devices = kDevices;
    hal_options.functional_threads = kFunctionalThreads;
    hal_ = std::make_unique<doppio::Hal>(hal_options);

    doppio::sched::QueryScheduler::Options sched_options;
    sched_options.cpu_threads = kCpuThreads;
    sched_options.cost_routing = true;
    sched_options.result_cache = true;
    sched_options.set_compilation = true;
    scheduler_ = std::make_unique<doppio::sched::QueryScheduler>(
        hal_.get(), sched_options);
    for (int i = 0; i < kSessions; ++i) {
      doppio::sched::SessionOptions session;
      session.tenant = "tenant" + std::to_string(i);
      sessions_.push_back(scheduler_->CreateSession(session));
    }

    doppio::ColumnStoreEngine::Options engine_options;
    engine_options.num_threads = 1;
    engine_options.sequential_pipe = true;
    engine_options.hal = hal_.get();
    // Appends through the engine invalidate the scheduler's cache.
    engine_options.result_cache = scheduler_->result_cache();
    engine_ = std::make_unique<doppio::ColumnStoreEngine>(engine_options);

    doppio::Rng data_rng(args_.seed);
    const std::vector<std::string> big = AddressStrings(&data_rng, kBigRows);
    const std::vector<std::string> small =
        AddressStrings(&data_rng, kSmallRows);
    for (int b = 0; b < kDistinctBatches; ++b) {
      batches_.push_back(AddressStrings(&data_rng, kBatchRows));
    }
    DOPPIO_RETURN_NOT_OK(AddTable("big", big));
    DOPPIO_RETURN_NOT_OK(AddTable("small", small));
    big_ = engine_->catalog()->GetTable("big")->GetColumn("s");
    small_ = engine_->catalog()->GetTable("small")->GetColumn("s");

    // Zipf-ranked pool, hottest first. An entry with several patterns
    // hands them out in turn, so each use is new to both caches until the
    // list wraps.
    std::set<std::string> seen;
    auto literals = [&](const std::vector<std::string>& rows, int count) {
      std::vector<std::string> out;
      while (static_cast<int>(out.size()) < count) {
        const std::string& row = rows[data_rng.NextBounded(rows.size())];
        const size_t start = data_rng.NextBounded(row.size() - 8);
        std::string literal;
        for (char c : row.substr(start, 8)) {
          if (!std::isalnum(static_cast<unsigned char>(c)) && c != ' ') {
            literal.push_back('\\');
          }
          literal.push_back(c);
        }
        if (seen.insert(literal).second) out.push_back(literal);
      }
      return out;
    };
    const std::string q3 = doppio::QueryPattern(doppio::EvalQuery::kQ3);
    pool_ = {
        {false, {doppio::QueryPattern(doppio::EvalQuery::kQ1)}},
        {false, {doppio::QueryPattern(doppio::EvalQuery::kQ2)}},
        {false, {q3}},
        {false, {doppio::QueryPattern(doppio::EvalQuery::kQ4)}},
        {false, {"delivery"}},
        {false, {"[0-9]+EUR"}},
        {false, {}},  // fresh literals, filled below
        // 28 character matchers: over the device's capacity, so the
        // scheduler routes it to the host lazy DFA. It scans the small
        // column: a full-column software scan of the big one would make
        // the service tail a measure of host contention alone.
        {true, {doppio::QueryPattern(doppio::EvalQuery::kQH)}},
        {true, {}},  // small-column patterns, filled below
    };
    for (const PoolEntry& e : pool_) {
      seen.insert(e.patterns.begin(), e.patterns.end());
    }
    pool_[6].patterns = literals(big, kFreshLiterals);
    pool_[8].patterns = literals(small, kFreshLiterals - 1);
    pool_[8].patterns.insert(pool_[8].patterns.begin(), q3);
    mix_ = ZipfRounds(pool_.size(), kZipfExponent, kZipfRound);

    // Oracle: every pattern over every row the run can ever hold (the
    // initial rows plus each distinct append batch).
    std::vector<std::unique_ptr<doppio::Bat>> batch_bats;
    for (const auto& batch : batches_) {
      DOPPIO_ASSIGN_OR_RETURN(auto bat, MakeStringBat(batch));
      batch_bats.push_back(std::move(bat));
    }
    for (const PoolEntry& entry : pool_) {
      for (const std::string& pattern : entry.patterns) {
        Expected e;
        DOPPIO_ASSIGN_OR_RETURN(
            e.initial, ExpectedMatches(entry.small ? *small_ : *big_, pattern));
        if (entry.small) {
          small_expected_[pattern] = std::move(e);
          continue;
        }
        for (const auto& bat : batch_bats) {
          DOPPIO_ASSIGN_OR_RETURN(auto values, ExpectedMatches(*bat, pattern));
          e.batches.push_back(std::move(values));
        }
        expected_[pattern] = std::move(e);
      }
    }
    if (args_.inject_wrong_expected) {
      std::vector<int16_t>& v = expected_.begin()->second.initial;
      v[0] = static_cast<int16_t>(v[0] == 0 ? 1 : 0);
    }

    // Host backend the CPU-program route runs, per small-column pattern.
    for (const std::string& pattern : pool_.back().patterns) {
      DOPPIO_ASSIGN_OR_RETURN(doppio::RegexConfig config,
                              hal_->CompileConfig(pattern));
      DOPPIO_ASSIGN_OR_RETURN(
          auto program,
          doppio::CompiledPuProgram::Compile(config.vector,
                                             hal_->device_config()));
      host_backend_[pattern] = MetricToken(doppio::BackendName(
          doppio::BackendRegistry::Global().ChooseHost(*program).id()));
    }

    // Warm-up: each single-pattern entry once, so the hot set's compiled
    // programs and cached blocks exist before timing starts.
    for (const PoolEntry& e : pool_) {
      if (e.patterns.size() != 1) continue;
      auto result = scheduler_->Execute(
          sessions_[0], e.small ? *small_ : *big_, e.patterns[0]);
      if (!result.ok()) return result.status();
    }
    return Status::OK();
  }

  void BeginTimed() override {
    rng_ = doppio::Rng(args_.seed * 104729 + 3);
    mix_.Reset();
    begin_ = PoolSnapshot::Take(hal_.get());
    base_ = Counters();
    ledger_ = PhaseLedger();
    arena_peak_ = hal_->arena()->allocated_bytes();
    // Each session's first query; the first step reports them.
    SpanLog untraced;
    first_submits_ = StepOutcome();
    for (int i = 0; i < kSessions; ++i) {
      outstanding_.push_back(Outstanding{});
      SubmitNext(i, &untraced, &first_submits_);
    }
  }

  void Step(int64_t step, SpanLog* spans, StepOutcome* out) override {
    const int session = static_cast<int>(step % kSessions);
    Outstanding& o = outstanding_[static_cast<size_t>(session)];
    if (step == 0) {
      out->attempted += first_submits_.attempted;
      out->failed += first_submits_.failed;
    }
    if (o.ticket.valid()) {
      doppio::Stopwatch watch;
      auto result = spans->Call(Layer::kSched, "Wait", [&] {
        return scheduler_->Wait(o.ticket);
      });
      wait_s_ += watch.ElapsedSeconds();
      ++waits_;
      out->host_s.push_back(NowSeconds() - o.submitted_at);
      if (!result.ok()) {
        ++out->failed;
      } else {
        Check(o, *result, out);
      }
    }

    if (step % kAppendEvery == kAppendEvery - 1) {
      const auto& batch = batches_[static_cast<size_t>(
          appends_ % kDistinctBatches)];
      ++out->attempted;
      doppio::Stopwatch watch;
      auto version = spans->Call(Layer::kDb, "AppendToColumn", [&] {
        return engine_->AppendToColumn("big", "s", batch);
      });
      const double seconds = watch.ElapsedSeconds();
      out->host_s.push_back(seconds);
      if (version.ok()) {
        append_s_ += seconds;
        appended_ += kBatchRows;
        ++appends_;
      } else {
        ++out->failed;
      }
    }
    SubmitNext(session, spans, out);
    arena_peak_ = std::max(arena_peak_, hal_->arena()->allocated_bytes());
  }

  int64_t divergent_rows() const override { return divergent_; }

  std::map<std::string, int64_t> Fingerprint() const override {
    const CounterSet now = Counters();
    std::map<std::string, int64_t> fp;
    fp["queries"] = ledger_.queries;
    fp["appended_rows"] = appended_;
    fp["hw_picos"] = ledger_.hw_picos;
    fp["device_picos"] =
        begin_.DevicePicosUntil(PoolSnapshot::Take(hal_.get()));
    fp["waves"] = now.waves - base_.waves;
    fp["program_cache.hits"] = now.program_hits - base_.program_hits;
    fp["result_cache.hits"] = now.result_hits - base_.result_hits;
    fp["result_cache.partial_hits"] = now.partial_hits - base_.partial_hits;
    fp["result_cache.invalidations"] =
        now.invalidations - base_.invalidations;
    fp["set_queries"] = set_queries_;
    for (const auto& [route, count] : routes_) fp["route." + route] = count;
    for (const auto& [strategy, count] : ledger_.strategies) {
      fp["strategy." + strategy] = count;
    }
    return fp;
  }

  double DeviceSecondsSinceBegin() const override {
    return static_cast<double>(
               begin_.DevicePicosUntil(PoolSnapshot::Take(hal_.get()))) /
           1e12;
  }

  int64_t queries() const override { return ledger_.queries; }
  int64_t appended_rows() const override { return appended_; }
  double append_seconds() const override { return append_s_; }

  void EmitLayers(MetricValues* out) const override {
    ledger_.Emit(out);
    const double queries =
        static_cast<double>(std::max<int64_t>(ledger_.queries, 1));
    const CounterSet now = Counters();
    auto delta = [](int64_t a, int64_t b) {
      return static_cast<double>(a - b);
    };

    (*out)["sched.submit_us"] =
        submit_s_ / static_cast<double>(std::max<int64_t>(submits_, 1)) * 1e6;
    (*out)["sched.wait_ms"] =
        wait_s_ / static_cast<double>(std::max<int64_t>(waits_, 1)) * 1e3;
    (*out)["sched.waves_per_query"] = delta(now.waves, base_.waves) / queries;
    const double fpga = static_cast<double>(std::max<int64_t>(
        routes_.count("fpga") ? routes_.at("fpga") : 0, 1));
    (*out)["sched.batch_width_mean"] = batch_width_sum_ / fpga;
    (*out)["sched.set_width_mean"] = set_width_sum_ / fpga;
    for (const auto& [route, count] : routes_) {
      (*out)["sched.route." + route] = static_cast<double>(count) / queries;
    }
    const double program_lookups =
        delta(now.program_hits + now.program_misses,
              base_.program_hits + base_.program_misses);
    (*out)["sched.program_cache.hit_ratio"] =
        program_lookups > 0
            ? delta(now.program_hits, base_.program_hits) / program_lookups
            : 0;
    const double result_lookups =
        delta(now.result_hits + now.result_misses,
              base_.result_hits + base_.result_misses);
    (*out)["sched.result_cache.hit_ratio"] =
        result_lookups > 0
            ? delta(now.result_hits, base_.result_hits) / result_lookups
            : 0;
    (*out)["sched.result_cache.partial_hits"] =
        delta(now.partial_hits, base_.partial_hits);
    (*out)["sched.result_cache.evictions"] =
        delta(now.evictions, base_.evictions);
    (*out)["sched.result_cache.invalidations"] =
        delta(now.invalidations, base_.invalidations);
    (*out)["sched.result_cache.incomplete_skipped"] =
        delta(now.incomplete, base_.incomplete);
    (*out)["sched.rejected"] = delta(now.rejected, base_.rejected);

    (*out)["hw.cpu_route_ms"] =
        cpu_route_queries_ > 0
            ? cpu_route_s_ / static_cast<double>(cpu_route_queries_) * 1e3
            : 0;
    for (const auto& [backend, count] : backends_) {
      (*out)["hw.host_backend." + backend] = static_cast<double>(count);
    }
    begin_.EmitUntilNow(hal_.get(), out);
    (*out)["mem.arena_peak_bytes"] = static_cast<double>(arena_peak_);
  }

  std::string ThreadSummary() const override {
    return "threads: client=1 functional=" +
           std::to_string(kFunctionalThreads) +
           " cpu_pool=" + std::to_string(kCpuThreads) +
           " devices=" + std::to_string(kDevices) +
           " sessions=" + std::to_string(kSessions) +
           " rows=" + std::to_string(kBigRows) + "+" +
           std::to_string(kSmallRows);
  }

 private:
  struct Expected {
    std::vector<int16_t> initial;
    std::vector<std::vector<int16_t>> batches;  // big column only
  };

  struct Outstanding {
    doppio::sched::QueryTicket ticket;
    std::string pattern;
    bool small = false;
    int64_t admit_rows = 0;
    double submitted_at = 0;
  };

  struct CounterSet {
    int64_t waves = 0;
    int64_t program_hits = 0;
    int64_t program_misses = 0;
    int64_t result_hits = 0;
    int64_t result_misses = 0;
    int64_t partial_hits = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    int64_t incomplete = 0;
    int64_t rejected = 0;
  };

  CounterSet Counters() const {
    CounterSet c;
    c.waves = RegistryCounter("doppio.sched.waves");
    c.program_hits = scheduler_->program_cache().hits();
    c.program_misses = scheduler_->program_cache().misses();
    const doppio::sched::ResultCache* cache = scheduler_->result_cache();
    c.result_hits = cache->hits();
    c.result_misses = cache->misses();
    c.partial_hits = cache->partial_hits();
    c.evictions = cache->evictions();
    c.invalidations = cache->invalidations();
    c.incomplete = cache->incomplete_skipped();
    for (const doppio::sched::Session* s : sessions_) {
      c.rejected += s->rejected();
    }
    return c;
  }

  Status AddTable(const std::string& name,
                  const std::vector<std::string>& values) {
    auto bat = std::make_unique<doppio::Bat>(doppio::ValueType::kString,
                                             engine_->allocator());
    for (const std::string& v : values) {
      DOPPIO_RETURN_NOT_OK(bat->AppendString(v));
    }
    auto table = std::make_unique<doppio::Table>(name);
    DOPPIO_RETURN_NOT_OK(table->AddColumn("s", std::move(bat)));
    return engine_->catalog()->AddTable(std::move(table));
  }

  /// Expected value of `row` of the big column (initial rows, then the
  /// append batches in cycle order) or of the small column.
  int16_t ExpectedAt(const Outstanding& o, int64_t row) const {
    if (o.small) {
      return small_expected_.at(o.pattern).initial[static_cast<size_t>(row)];
    }
    const Expected& e = expected_.at(o.pattern);
    if (row < kBigRows) return e.initial[static_cast<size_t>(row)];
    const int64_t appended = row - kBigRows;
    const auto& batch = e.batches[static_cast<size_t>(
        (appended / kBatchRows) % kDistinctBatches)];
    return batch[static_cast<size_t>(appended % kBatchRows)];
  }

  void Check(const Outstanding& o, const doppio::sched::ScheduledResult& r,
             StepOutcome* out) {
    const doppio::QueryStats& stats = r.hudf.stats;
    out->service_s.push_back(ServiceSeconds(stats));
    ledger_.Add(stats);
    int64_t bad = 0;
    const doppio::Bat* result = r.hudf.result.get();
    if (result == nullptr || result->count() != o.admit_rows) {
      bad = o.admit_rows;
    } else {
      for (int64_t row = 0; row < o.admit_rows; ++row) {
        if (result->GetInt16(row) != ExpectedAt(o, row)) ++bad;
      }
    }
    if (bad > 0) {
      divergent_ += bad;
      ++out->failed;
    }
    std::string route;
    switch (r.route) {
      case Route::kFpga:
        route = "fpga";
        ++backends_["fpga_sim"];
        batch_width_sum_ += r.batch_width;
        set_width_sum_ += r.set_width;
        if (r.set_width > 1) ++set_queries_;
        break;
      case Route::kCpuProgram:
        route = "cpu_program";
        ++backends_[host_backend_.count(o.pattern) ? host_backend_.at(o.pattern)
                                                   : "cpu_scalar"];
        break;
      case Route::kCpuDfa:
        route = "cpu_dfa";
        ++backends_["cpu_dfa"];
        break;
      case Route::kCache:
        route = "cache";
        break;
    }
    if (r.route == Route::kCpuProgram || r.route == Route::kCpuDfa) {
      cpu_route_s_ += stats.udf_software_seconds;
      ++cpu_route_queries_;
    }
    ++routes_[route];
  }

  void SubmitNext(int session, SpanLog* spans, StepOutcome* out) {
    Outstanding& o = outstanding_[static_cast<size_t>(session)];
    PoolEntry& entry = pool_[mix_.Next(&rng_)];
    o.small = entry.small;
    o.pattern = entry.patterns[entry.next++ % entry.patterns.size()];
    const doppio::Bat& column = o.small ? *small_ : *big_;
    o.admit_rows = column.count();
    o.submitted_at = NowSeconds();
    doppio::Stopwatch watch;
    auto ticket = spans->Call(Layer::kSched, "Submit", [&] {
      return scheduler_->Submit(sessions_[session], column, o.pattern);
    });
    submit_s_ += watch.ElapsedSeconds();
    ++submits_;
    ++out->attempted;
    if (ticket.ok()) {
      o.ticket = *ticket;
    } else {
      o.ticket = doppio::sched::QueryTicket();
      ++out->failed;
    }
  }

  Args args_;
  std::unique_ptr<doppio::Hal> hal_;
  std::unique_ptr<doppio::sched::QueryScheduler> scheduler_;
  std::unique_ptr<doppio::ColumnStoreEngine> engine_;
  std::vector<doppio::sched::Session*> sessions_;
  doppio::Bat* big_ = nullptr;
  doppio::Bat* small_ = nullptr;
  std::vector<std::vector<std::string>> batches_;
  std::vector<PoolEntry> pool_;
  ZipfRounds mix_{1, 0, 1};
  std::map<std::string, Expected> expected_;
  std::map<std::string, Expected> small_expected_;
  std::map<std::string, std::string> host_backend_;

  doppio::Rng rng_{1};
  std::vector<Outstanding> outstanding_;
  StepOutcome first_submits_;
  PoolSnapshot begin_;
  CounterSet base_;
  PhaseLedger ledger_;
  std::map<std::string, int64_t> routes_;
  std::map<std::string, int64_t> backends_;
  double batch_width_sum_ = 0;
  double set_width_sum_ = 0;
  int64_t set_queries_ = 0;
  double cpu_route_s_ = 0;
  int64_t cpu_route_queries_ = 0;
  double submit_s_ = 0;
  int64_t submits_ = 0;
  double wait_s_ = 0;
  int64_t waits_ = 0;
  double append_s_ = 0;
  int64_t appended_ = 0;
  int64_t appends_ = 0;
  int64_t divergent_ = 0;
  int64_t arena_peak_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeTenants(const Args& args) {
  return std::make_unique<Tenants>(args);
}

}  // namespace perfbench
