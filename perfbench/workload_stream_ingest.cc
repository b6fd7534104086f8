// stream_ingest — out-of-core. A segmented column whose payload is
// several times the pager's budget receives AppendToSegmented ingest (up
// to kTimedAppends batches), interleaved with EvalSegmentedFilter scans
// drawn from a small pattern pool, with an engine result cache attached.
// This is the only
// workload whose working set exceeds the program's own caches, and the
// only one where page-in, sealing and per-segment cache reuse matter.
// Segmented appends must leave cached blocks valid (sealed segments are
// immutable), unlike the resident appends of `tenants`. Service latency
// includes the modeled page-in exactly as the streaming executor reports
// it in hw_seconds.
#include <cmath>

#include "common/stopwatch.h"
#include "db/column_store.h"
#include "harness.h"
#include "sched/result_cache.h"
#include "support.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using doppio::Status;

constexpr int64_t kSegmentBytes = int64_t{512} << 10;
// Two arena pages: room for exactly two resident windows, so the
// double-buffered executor streams and every other window pages in.
constexpr int64_t kPagerBudget = int64_t{4} << 20;
constexpr int64_t kInitialRows = 180'000;  // ~12 MiB payload, 3x the budget
constexpr int64_t kBatchRows = 64;         // rows per append
constexpr int kAppendEvery = 2;            // scans per append
constexpr int kDistinctBatches = 16;       // appended batches cycle through
// Appends of the timed region: ~15 000 rows, two sealed segments. Every
// scan costs time in proportion to the rows it sees, so an unbounded
// ingest would make a faster run scan a larger column; past this cap the
// column holds still and the rest of the run measures the same scan mix.
constexpr int64_t kTimedAppends = 240;
// Smaller than the pattern pool's blocks over the whole column, so the
// cache evicts and re-scanned windows page in again.
constexpr int64_t kResultCacheBytes = int64_t{1} << 20;
constexpr int kFunctionalThreads = 1;
constexpr double kZipfExponent = 1.5;
constexpr int kZipfRound = 25;  // scans per round with the exact Zipf mix
const char* const kTable = "stream";
const char* const kColumn = "s";

class StreamIngest : public Workload {
 public:
  explicit StreamIngest(const Args& args) : args_(args) {}

  Status Setup() override {
    doppio::Hal::Options hal_options;
    hal_options.shared_memory_bytes = int64_t{128} << 20;
    hal_options.functional_threads = kFunctionalThreads;
    hal_ = std::make_unique<doppio::Hal>(hal_options);
    cache_ = std::make_unique<doppio::sched::ResultCache>(kResultCacheBytes);
    doppio::ColumnStoreEngine::Options options;
    options.num_threads = 1;
    options.sequential_pipe = true;
    options.hal = hal_.get();
    options.result_cache = cache_.get();
    options.pager_budget_bytes = kPagerBudget;
    options.segment_target_bytes = kSegmentBytes;
    engine_ = std::make_unique<doppio::ColumnStoreEngine>(options);
    DOPPIO_RETURN_NOT_OK(engine_->CreateSegmentedColumn(kTable, kColumn));

    doppio::Rng data_rng(args_.seed);
    const std::vector<std::string> initial =
        AddressStrings(&data_rng, kInitialRows);
    for (int b = 0; b < kDistinctBatches; ++b) {
      batches_.push_back(AddressStrings(&data_rng, kBatchRows));
    }
    for (const std::string& s : initial) user_bytes_ += s.size();
    DOPPIO_RETURN_NOT_OK(engine_
                             ->AppendToSegmented(kTable, kColumn, initial,
                                                 /*seal=*/true)
                             .status());

    patterns_ = {doppio::QueryPattern(doppio::EvalQuery::kQ1),
                 doppio::QueryPattern(doppio::EvalQuery::kQ2), "delivery",
                 "EUR"};
    mix_ = ZipfRounds(patterns_.size(), kZipfExponent, kZipfRound);

    // Oracle over the initial rows and every distinct append batch.
    DOPPIO_ASSIGN_OR_RETURN(auto initial_bat, MakeStringBat(initial));
    for (const std::string& pattern : patterns_) {
      Expected e;
      DOPPIO_ASSIGN_OR_RETURN(auto values,
                              ExpectedMatches(*initial_bat, pattern));
      e.initial = ToBits(values);
      for (const auto& batch : batches_) {
        DOPPIO_ASSIGN_OR_RETURN(auto bat, MakeStringBat(batch));
        DOPPIO_ASSIGN_OR_RETURN(auto batch_values,
                                ExpectedMatches(*bat, pattern));
        e.batches.push_back(ToBits(batch_values));
      }
      expected_[pattern] = std::move(e);
    }
    if (args_.inject_wrong_expected) {
      uint8_t& bit = expected_.begin()->second.initial[0];
      bit = bit == 0 ? 1 : 0;
    }

    // Warm-up: one scan per pattern (fills the cache, pages the column
    // through the budget once).
    for (const std::string& pattern : patterns_) {
      doppio::QueryStats stats;
      auto bits = engine_->EvalSegmentedFilter(kTable, kColumn, Spec(pattern),
                                               &stats);
      if (!bits.ok()) return bits.status();
    }
    return Status::OK();
  }

  void BeginTimed() override {
    rng_ = doppio::Rng(args_.seed * 15485863 + 5);
    mix_.Reset();
    begin_ = PoolSnapshot::Take(hal_.get());
    base_ = Counters();
    ledger_ = PhaseLedger();
    arena_peak_ = hal_->arena()->allocated_bytes();
    resident_peak_ = engine_->pager()->resident_bytes();
  }

  void Step(int64_t step, SpanLog* spans, StepOutcome* out) override {
    if (step % kAppendEvery == 0 && appends_ < kTimedAppends) {
      Append(spans, out);
    }

    // Scan: one pattern of the pool over the sealed snapshot.
    const std::string& pattern = patterns_[mix_.Next(&rng_)];
    ++out->attempted;
    doppio::QueryStats stats;
    doppio::Stopwatch watch;
    auto bits = spans->Call(Layer::kStore, "EvalSegmentedFilter", [&] {
      return engine_->EvalSegmentedFilter(kTable, kColumn, Spec(pattern),
                                          &stats);
    });
    out->host_s.push_back(watch.ElapsedSeconds());
    if (!bits.ok()) {
      ++out->failed;
      return;
    }
    out->service_s.push_back(ServiceSeconds(stats));
    ledger_.Add(stats);
    const int64_t bad = Diverging(pattern, *bits);
    if (bad > 0) {
      divergent_ += bad;
      ++out->failed;
    }
    arena_peak_ = std::max(arena_peak_, hal_->arena()->allocated_bytes());
    resident_peak_ =
        std::max(resident_peak_, engine_->pager()->resident_bytes());
  }

  int64_t divergent_rows() const override { return divergent_; }

  std::map<std::string, int64_t> Fingerprint() const override {
    const CounterSet now = Counters();
    std::map<std::string, int64_t> fp;
    fp["scans"] = ledger_.queries;
    fp["appended_rows"] = appended_;
    fp["hw_picos"] = ledger_.hw_picos;
    fp["page_in_picos"] = std::llround(ledger_.page_in_s * 1e12);
    fp["device_picos"] =
        begin_.DevicePicosUntil(PoolSnapshot::Take(hal_.get()));
    fp["windows"] = ledger_.windows;
    fp["window_cache_hits"] = now.window_hits - base_.window_hits;
    fp["page_ins"] = now.page_ins - base_.page_ins;
    fp["sealed_segments"] = now.sealed - base_.sealed;
    fp["result_cache.hits"] = now.hits - base_.hits;
    fp["result_cache.evictions"] = now.evictions - base_.evictions;
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
    const CounterSet now = Counters();
    const double scans =
        static_cast<double>(std::max<int64_t>(ledger_.queries, 1));
    auto delta = [](int64_t a, int64_t b) {
      return static_cast<double>(a - b);
    };
    (*out)["store.append_us"] =
        append_s_ / static_cast<double>(std::max<int64_t>(appends_, 1)) * 1e6;
    (*out)["store.sealed_segments"] = delta(now.sealed, base_.sealed);
    (*out)["store.page_ins"] = delta(now.page_ins, base_.page_ins);
    (*out)["store.page_in_bytes_per_scan"] =
        delta(now.page_in_bytes, base_.page_in_bytes) / scans;
    (*out)["store.page_in_ms"] = ledger_.page_in_s / scans * 1e3;
    (*out)["store.windows_per_scan"] =
        static_cast<double>(ledger_.windows) / scans;
    const double window_hits = delta(now.window_hits, base_.window_hits);
    const double windows = window_hits + static_cast<double>(ledger_.windows);
    (*out)["store.window_cache_hit_ratio"] =
        windows > 0 ? window_hits / windows : 0;
    const doppio::Pager* pager = engine_->pager();
    (*out)["store.spill_bytes_per_user_byte"] =
        static_cast<double>(pager->spill_bytes()) /
        static_cast<double>(std::max<int64_t>(user_bytes_, 1));
    (*out)["store.resident_peak_frac"] =
        static_cast<double>(resident_peak_) /
        static_cast<double>(pager->budget_bytes());
    const double lookups =
        delta(now.hits + now.misses, base_.hits + base_.misses);
    (*out)["sched.result_cache.hit_ratio"] =
        lookups > 0 ? delta(now.hits, base_.hits) / lookups : 0;
    (*out)["sched.result_cache.partial_hits"] =
        delta(now.partial_hits, base_.partial_hits);
    (*out)["sched.result_cache.evictions"] =
        delta(now.evictions, base_.evictions);
    (*out)["sched.result_cache.invalidations"] =
        delta(now.invalidations, base_.invalidations);
    (*out)["sched.result_cache.incomplete_skipped"] =
        delta(now.incomplete, base_.incomplete);
    begin_.EmitUntilNow(hal_.get(), out);
    (*out)["hw.host_backend.fpga_sim"] = static_cast<double>(ledger_.queries);
    (*out)["mem.arena_peak_bytes"] = static_cast<double>(arena_peak_);
  }

  std::string ThreadSummary() const override {
    return "threads: client=1 functional=" +
           std::to_string(kFunctionalThreads) +
           " cpu_pool=0 devices=1 rows=" + std::to_string(kInitialRows) +
           "+" + std::to_string(kBatchRows) + " every " +
           std::to_string(kAppendEvery) + " steps budget_bytes=" +
           std::to_string(kPagerBudget) +
           " segment_bytes=" + std::to_string(kSegmentBytes);
  }

 private:
  struct Expected {
    std::vector<uint8_t> initial;
    std::vector<std::vector<uint8_t>> batches;
  };

  struct CounterSet {
    int64_t sealed = 0;
    int64_t page_ins = 0;
    int64_t page_in_bytes = 0;
    int64_t window_hits = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t partial_hits = 0;
    int64_t evictions = 0;
    int64_t invalidations = 0;
    int64_t incomplete = 0;
  };

  CounterSet Counters() const {
    CounterSet c;
    c.sealed = RegistryCounter("doppio.store.sealed_segments");
    c.page_ins = RegistryCounter("doppio.store.page_ins");
    c.page_in_bytes = RegistryCounter("doppio.store.page_in_bytes");
    c.window_hits = RegistryCounter("doppio.store.window_cache_hits");
    c.hits = cache_->hits();
    c.misses = cache_->misses();
    c.partial_hits = cache_->partial_hits();
    c.evictions = cache_->evictions();
    c.invalidations = cache_->invalidations();
    c.incomplete = cache_->incomplete_skipped();
    return c;
  }

  /// Ingest: one batch, auto-sealed into a new segment at the target size.
  void Append(SpanLog* spans, StepOutcome* out) {
    const auto& batch =
        batches_[static_cast<size_t>(appends_ % kDistinctBatches)];
    ++out->attempted;
    doppio::Stopwatch watch;
    auto version = spans->Call(Layer::kStore, "AppendToSegmented", [&] {
      return engine_->AppendToSegmented(kTable, kColumn, batch);
    });
    const double seconds = watch.ElapsedSeconds();
    out->host_s.push_back(seconds);
    if (!version.ok()) {
      ++out->failed;
      return;
    }
    append_s_ += seconds;
    appended_ += kBatchRows;
    ++appends_;
    for (const std::string& s : batch) user_bytes_ += s.size();
  }

  static std::vector<uint8_t> ToBits(const std::vector<int16_t>& values) {
    std::vector<uint8_t> bits(values.size());
    for (size_t i = 0; i < values.size(); ++i) bits[i] = values[i] != 0;
    return bits;
  }

  static doppio::StringFilterSpec Spec(const std::string& pattern) {
    doppio::StringFilterSpec spec;
    spec.op = doppio::StringFilterSpec::Op::kRegexpFpga;
    spec.pattern = pattern;
    return spec;
  }

  /// Rows of a scan's result that differ from the oracle's prefix of the
  /// same length (the sealed prefix of initial rows + appended batches).
  int64_t Diverging(const std::string& pattern,
                    const std::vector<uint8_t>& bits) const {
    const Expected& e = expected_.at(pattern);
    int64_t bad = 0;
    const int64_t rows = static_cast<int64_t>(bits.size());
    if (rows > kInitialRows + appended_) return rows;
    for (int64_t row = 0; row < rows; ++row) {
      uint8_t want;
      if (row < kInitialRows) {
        want = e.initial[static_cast<size_t>(row)];
      } else {
        const int64_t appended = row - kInitialRows;
        want = e.batches[static_cast<size_t>((appended / kBatchRows) %
                                             kDistinctBatches)]
                        [static_cast<size_t>(appended % kBatchRows)];
      }
      if (bits[static_cast<size_t>(row)] != want) ++bad;
    }
    return bad;
  }

  Args args_;
  std::unique_ptr<doppio::Hal> hal_;
  std::unique_ptr<doppio::sched::ResultCache> cache_;
  std::unique_ptr<doppio::ColumnStoreEngine> engine_;
  std::vector<std::vector<std::string>> batches_;
  std::vector<std::string> patterns_;
  ZipfRounds mix_{1, 0, 1};
  std::map<std::string, Expected> expected_;

  doppio::Rng rng_{1};
  PoolSnapshot begin_;
  CounterSet base_;
  PhaseLedger ledger_;
  double append_s_ = 0;
  int64_t appended_ = 0;
  int64_t appends_ = 0;
  int64_t user_bytes_ = 0;
  int64_t divergent_ = 0;
  int64_t arena_peak_ = 0;
  int64_t resident_peak_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamIngest(const Args& args) {
  return std::make_unique<StreamIngest>(args);
}

}  // namespace perfbench
