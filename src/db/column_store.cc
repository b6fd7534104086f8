#include "db/column_store.h"

#include <optional>

#include "common/stopwatch.h"
#include "db/cost_model.h"
#include "db/hudf.h"
#include "db/hybrid_executor.h"
#include "hw/config_compiler.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/like_translator.h"
#include "regex/substring_search.h"
#include "sched/result_cache.h"
#include "store/stream_executor.h"

namespace doppio {

namespace {

// The HUDF result -> selection operator, BAT-at-a-time: one byte per row,
// 1 where the result column reports a match. Reading through hoisted
// pointers lets the loop vectorize; through Bat::GetInt16 every byte
// store could alias the BAT's tail pointer and forced a reload per row.
std::vector<uint8_t> MatchesToSelection(const Bat& result, int64_t rows) {
  std::vector<uint8_t> bits(static_cast<size_t>(rows));
  const int16_t* values = reinterpret_cast<const int16_t*>(result.tail_data());
  uint8_t* out = bits.data();
  for (int64_t i = 0; i < rows; ++i) out[i] = values[i] != 0 ? 1 : 0;
  return bits;
}

// Applies a predicate's NOT to its selection bytes; returns the number of
// selected rows.
int64_t FinishSelection(bool negated, std::vector<uint8_t>* bits) {
  const uint8_t flip = negated ? 1 : 0;
  int64_t selected = 0;
  for (uint8_t& b : *bits) {
    b ^= flip;
    selected += b;
  }
  return selected;
}

}  // namespace

ColumnStoreEngine::ColumnStoreEngine(const Options& options)
    : options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {}

ColumnStoreEngine::~ColumnStoreEngine() = default;

BufferAllocator* ColumnStoreEngine::allocator() const {
  if (options_.hal != nullptr) return options_.hal->bat_allocator();
  return MallocAllocator::Default();
}

const OperatorCostModel& ColumnStoreEngine::cost_model() {
  if (cost_model_ == nullptr) {
    OperatorCostModel::Calibration calibration =
        OperatorCostModel::Measure(options_.num_threads);
    DeviceConfig device = options_.hal != nullptr
                              ? options_.hal->device_config()
                              : DeviceConfig{};
    cost_model_ =
        std::make_unique<OperatorCostModel>(device, calibration);
  }
  return *cost_model_;
}

bool ColumnStoreEngine::ColumnEpochGuard::TryBeginRead() {
  // Dekker handshake, reader side: publish the reader count first, then
  // check for a writer. Sequential consistency gives a total order over
  // the four accesses, so a racing writer either sees our increment (and
  // backs off) or we see its flag (and back off) — never neither.
  readers.fetch_add(1, std::memory_order_seq_cst);
  if (writer.load(std::memory_order_seq_cst)) {
    readers.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }
  return true;
}

void ColumnStoreEngine::ColumnEpochGuard::EndRead() {
  readers.fetch_sub(1, std::memory_order_seq_cst);
}

bool ColumnStoreEngine::ColumnEpochGuard::TryBeginWrite() {
  bool expected = false;
  if (!writer.compare_exchange_strong(expected, true,
                                      std::memory_order_seq_cst)) {
    return false;  // another append holds the column
  }
  if (readers.load(std::memory_order_seq_cst) != 0) {
    writer.store(false, std::memory_order_seq_cst);
    return false;  // a scan is in flight
  }
  return true;
}

void ColumnStoreEngine::ColumnEpochGuard::EndWrite() {
  writer.store(false, std::memory_order_seq_cst);
}

ColumnStoreEngine::ColumnEpochGuard* ColumnStoreEngine::EpochGuardFor(
    uint64_t column_id) {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  std::unique_ptr<ColumnEpochGuard>& slot = epoch_guards_[column_id];
  if (slot == nullptr) slot = std::make_unique<ColumnEpochGuard>();
  return slot.get();
}

void ColumnStoreEngine::ParallelOverRows(
    int64_t num_rows, const std::function<void(int64_t, int64_t, int)>& fn) {
  const int parts = partitions();
  if (parts <= 1 || num_rows < 1024) {
    fn(0, num_rows, 0);
    return;
  }
  const int64_t chunk = (num_rows + parts - 1) / parts;
  pool_->ParallelFor(parts, [&](int p) {
    int64_t first = p * chunk;
    int64_t end = std::min<int64_t>(num_rows, first + chunk);
    if (first < end) fn(first, end, p);
  });
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalStringFilter(
    const Bat& column, const StringFilterSpec& spec, QueryStats* stats) {
  if (column.type() != ValueType::kString) {
    return Status::InvalidArgument("string filter over non-string column");
  }
  ColumnEpochGuard* epoch = EpochGuardFor(column.id());
  if (!epoch->TryBeginRead()) {
    return Status::Overloaded(
        "ingest in progress on the scanned column; retry the scan");
  }
  struct ReadRelease {
    ColumnEpochGuard* g;
    ~ReadRelease() { g->EndRead(); }
  } epoch_release{epoch};
  // REGEXP_AUTO and REGEXP_HYBRID compile their pattern once, into a plan
  // that the cost model and the executor both read.
  std::optional<HybridPlan> plan;
  if (options_.hal != nullptr && (spec.op == StringFilterSpec::Op::kAuto ||
                                  spec.op == StringFilterSpec::Op::kHybrid)) {
    CompileOptions copts;
    copts.case_insensitive = spec.case_insensitive;
    Result<HybridPlan> compiled =
        PlanHybrid(spec.pattern, options_.hal->device_config(), copts);
    if (compiled.ok()) {
      plan = std::move(*compiled);
    } else if (spec.op == StringFilterSpec::Op::kHybrid) {
      return compiled.status();
    }
  }
  const HybridPlan* planned = plan.has_value() ? &*plan : nullptr;
  // The cost-model strategy: predict each candidate's runtime and rewrite
  // the spec to the cheapest one before execution.
  StringFilterSpec effective = spec;
  if (spec.op == StringFilterSpec::Op::kAuto) {
    TableStats table_stats;
    table_stats.rows = column.count();
    table_stats.heap_bytes = column.heap()->size_bytes();
    OperatorCostModel::Choice choice =
        cost_model().Choose(spec, table_stats, planned);
    effective.op = choice.op;
    if (!choice.rewritten_pattern.empty()) {
      effective.pattern = choice.rewritten_pattern;
    }
  }

  QueryStats own;  // this predicate's stats, merged into `stats` below
  Stopwatch watch;
  Result<std::vector<uint8_t>> result = [&]() {
    switch (effective.op) {
      case StringFilterSpec::Op::kLike:
        return EvalLike(column, effective);
      case StringFilterSpec::Op::kRegexpLike:
        return EvalRegexp(column, effective);
      case StringFilterSpec::Op::kRegexpFpga:
      case StringFilterSpec::Op::kHybrid:
        return EvalFpga(column, effective, planned, &own);
      case StringFilterSpec::Op::kContains:
        return EvalContains(column, effective);
      case StringFilterSpec::Op::kAuto:
        break;  // unreachable: rewritten above
    }
    return Result<std::vector<uint8_t>>(
        Status::Internal("unknown string filter op"));
  }();
  if (!result.ok()) return result.status();

  const int64_t matched = FinishSelection(spec.negated, &*result);
  if (stats != nullptr) {
    own.rows_scanned = column.count();
    own.rows_matched = matched;
    // FPGA strategies fill their own phase breakdown in EvalFpga; the
    // software paths charge the database phase, and a plan the cost model
    // read but did not run to the config phase.
    if (effective.op == StringFilterSpec::Op::kLike ||
        effective.op == StringFilterSpec::Op::kRegexpLike ||
        effective.op == StringFilterSpec::Op::kContains) {
      own.database_seconds = watch.ElapsedSeconds();
      if (planned != nullptr) {
        own.config_gen_seconds = planned->compile_seconds;
      }
      switch (effective.op) {
        case StringFilterSpec::Op::kLike:
          own.strategy = spec.case_insensitive ? "ilike" : "like";
          break;
        case StringFilterSpec::Op::kRegexpLike:
          own.strategy = "regexp_like";
          break;
        default:
          own.strategy = "contains";
          break;
      }
    }
    if (spec.op == StringFilterSpec::Op::kAuto) {
      own.strategy = "auto->" + own.strategy;
    }
    stats->Accumulate(own);
  }
  return result;
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalLike(
    const Bat& column, const StringFilterSpec& spec) {
  DOPPIO_ASSIGN_OR_RETURN(LikeAnalysis like, TranslateLike(spec.pattern));
  std::vector<uint8_t> bits(static_cast<size_t>(column.count()), 0);

  // MonetDB serves case-sensitive %s1%s2% patterns with its optimized
  // substring scan, but ILIKE falls back to the (slower) PCRE-based path
  // — reproduced here by routing it through the automaton matcher, which
  // is what makes ILIKE roughly twice as expensive (paper Fig. 12).
  if (like.is_multi_substring && !spec.case_insensitive) {
    // The %s1%s2% fast path: ordered substring search (BMH stages).
    Status worker_status = Status::OK();
    std::mutex status_mutex;
    ParallelOverRows(column.count(), [&](int64_t first, int64_t end, int) {
      auto matcher = MultiSubstringMatcher::Create(like.substrings,
                                                   spec.case_insensitive);
      if (!matcher.ok()) {
        std::lock_guard<std::mutex> lock(status_mutex);
        worker_status = matcher.status();
        return;
      }
      for (int64_t i = first; i < end; ++i) {
        bits[static_cast<size_t>(i)] =
            (*matcher)->Matches(column.GetString(i)) ? 1 : 0;
      }
    });
    DOPPIO_RETURN_NOT_OK(worker_status);
    return bits;
  }

  // General LIKE (underscores or anchors): lazy DFA over the translated
  // regex with anchor flags.
  CompileOptions copts;
  copts.case_insensitive = spec.case_insensitive;
  copts.anchor_start = like.anchored_start;
  copts.anchor_end = like.anchored_end;
  Status worker_status = Status::OK();
  std::mutex status_mutex;
  ParallelOverRows(column.count(), [&](int64_t first, int64_t end, int) {
    auto matcher_result = CompileProgram(*like.ast, copts);
    if (!matcher_result.ok()) {
      std::lock_guard<std::mutex> lock(status_mutex);
      worker_status = matcher_result.status();
      return;
    }
    auto matcher = DfaMatcher::FromProgram(std::move(*matcher_result));
    for (int64_t i = first; i < end; ++i) {
      bits[static_cast<size_t>(i)] =
          matcher->Matches(column.GetString(i)) ? 1 : 0;
    }
  });
  DOPPIO_RETURN_NOT_OK(worker_status);
  return bits;
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalRegexp(
    const Bat& column, const StringFilterSpec& spec) {
  // MonetDB's REGEXP_LIKE is a scalar SQL function over PCRE: the engine
  // invokes it tuple-at-a-time, paying the PCRE setup on every call
  // (exactly the per-tuple UDF invocation overhead the paper's §9 calls
  // out, and what makes Table 1's REGEXP_LIKE an order of magnitude
  // slower than the BAT-at-a-time LIKE). We reproduce that faithfully:
  // pattern compilation happens per tuple, backtracking execution per
  // match.
  CompileOptions copts;
  copts.case_insensitive = spec.case_insensitive;
  // Validate the pattern once so errors surface deterministically.
  DOPPIO_RETURN_NOT_OK(
      BacktrackMatcher::Compile(spec.pattern, copts).status());
  std::vector<uint8_t> bits(static_cast<size_t>(column.count()), 0);
  Status worker_status = Status::OK();
  std::mutex status_mutex;
  ParallelOverRows(column.count(), [&](int64_t first, int64_t end, int) {
    for (int64_t i = first; i < end; ++i) {
      // Scalar invocation: compile + execute per tuple.
      auto matcher = BacktrackMatcher::Compile(spec.pattern, copts);
      if (!matcher.ok()) {
        std::lock_guard<std::mutex> lock(status_mutex);
        worker_status = matcher.status();
        return;
      }
      bits[static_cast<size_t>(i)] =
          (*matcher)->Matches(column.GetString(i)) ? 1 : 0;
      if ((*matcher)->last_find_exceeded_budget()) {
        std::lock_guard<std::mutex> lock(status_mutex);
        worker_status =
            Status::Internal("backtracking step budget exceeded");
        return;
      }
    }
  });
  DOPPIO_RETURN_NOT_OK(worker_status);
  return bits;
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalFpga(
    const Bat& column, const StringFilterSpec& spec, const HybridPlan* plan,
    QueryStats* stats) {
  if (options_.hal == nullptr) {
    return Status::InvalidArgument(
        "REGEXP_FPGA requires a HAL-enabled engine");
  }
  std::unique_ptr<Bat> result;
  QueryStats local;
  Status hw_status = Status::OK();
  if (spec.op == StringFilterSpec::Op::kHybrid) {
    Result<HybridResult> hybrid =
        ExecuteHybrid(options_.hal, column, *plan, options_.result_cache);
    if (hybrid.ok()) {
      result = std::move(hybrid->result);
      local = hybrid->stats;
    } else {
      hw_status = hybrid.status();
    }
  } else {
    // REGEXP_FPGA compiles its pattern here; REGEXP_AUTO runs the config
    // its plan already holds.
    std::optional<Result<RegexConfig>> compiled;
    const RegexConfig* config = nullptr;
    if (plan != nullptr) {
      config = &*plan->fpga_config;
    } else {
      CompileOptions copts;
      copts.case_insensitive = spec.case_insensitive;
      compiled = options_.hal->CompileConfig(spec.pattern, copts);
      if (compiled->ok()) config = &**compiled;
    }
    // The engine-side HUDF partitions one query's data across all Regex
    // Engines (paper §7.5).
    Result<HudfResult> hw =
        config != nullptr
            ? RegexpFpgaPartitioned(options_.hal, column, *config)
            : Result<HudfResult>(compiled->status());
    if (hw.ok()) {
      result = std::move(hw->result);
      local = hw->stats;
      local.config_gen_seconds =
          plan != nullptr ? plan->compile_seconds : config->compile_seconds;
    } else {
      hw_status = hw.status();
    }
  }
  if (!hw_status.ok()) {
    // The layers below degrade per-slice; an error that still reaches the
    // scan operator and is fallback-eligible (device refused the job
    // outright) degrades the whole predicate to the software matchers.
    // Capacity is the exception: it is a planning-time property of the
    // pattern, and the explicit REGEXP_FPGA operator surfaces it — the
    // documented route around an oversized pattern is the AUTO/HYBRID
    // planner, which splits or goes software *by plan*, not by fault.
    if (!IsFallbackEligible(hw_status) || hw_status.IsCapacityExceeded()) {
      return hw_status;
    }
    Stopwatch sw_watch;
    DOPPIO_ASSIGN_OR_RETURN(std::vector<uint8_t> bits,
                            EvalRegexp(column, spec));
    stats->strategy = "fpga+sw_fallback";
    stats->udf_software_seconds = sw_watch.ElapsedSeconds();
    stats->fallback_rows = column.count();
    return bits;
  }
  // Phases only: EvalStringFilter counts the volumes.
  local.rows_scanned = 0;
  local.rows_matched = 0;
  *stats = std::move(local);
  return MatchesToSelection(*result, column.count());
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalContains(
    const Bat& column, const StringFilterSpec& spec) {
  const InvertedIndex* index = contains_index(&column);
  if (index == nullptr) {
    return Status::InvalidArgument(
        "CONTAINS requires a pre-built inverted index on the column");
  }
  if (index->IsStaleFor(column)) {
    return Status::InvalidArgument(
        "inverted index is stale; rebuild it first");
  }
  DOPPIO_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                          index->Search(spec.pattern));
  std::vector<uint8_t> bits(static_cast<size_t>(column.count()), 0);
  for (int64_t row : rows) bits[static_cast<size_t>(row)] = 1;
  return bits;
}

Result<uint64_t> ColumnStoreEngine::AppendToColumn(
    const std::string& table, const std::string& column,
    const std::vector<std::string>& values) {
  Table* t = catalog_.GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  Bat* col = t->GetColumn(column);
  if (col == nullptr) {
    return Status::NotFound("no column '" + column + "'");
  }
  if (col->type() != ValueType::kString) {
    return Status::InvalidArgument("AppendToColumn requires a string column");
  }
  // Epoch guard: an append reallocates the BAT's offsets/heap, so it must
  // not overlap a scan of the same column. The conflict is surfaced as a
  // typed, retryable error rather than a blocking wait (or a race).
  ColumnEpochGuard* epoch = EpochGuardFor(col->id());
  if (!epoch->TryBeginWrite()) {
    return Status::Overloaded(
        "scan in flight over the target column; retry the append");
  }
  struct WriteRelease {
    ColumnEpochGuard* g;
    ~WriteRelease() { g->EndWrite(); }
  } epoch_release{epoch};
  for (const std::string& value : values) {
    DOPPIO_RETURN_NOT_OK(col->AppendString(value));
  }
  if (options_.result_cache != nullptr) {
    options_.result_cache->InvalidateColumn(col->id());
  }
  return col->version();
}

Status ColumnStoreEngine::BuildContainsIndex(const std::string& table,
                                             const std::string& column) {
  Table* t = catalog_.GetTable(table);
  if (t == nullptr) return Status::NotFound("no table '" + table + "'");
  Bat* col = t->GetColumn(column);
  if (col == nullptr) {
    return Status::NotFound("no column '" + column + "'");
  }
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<InvertedIndex> index,
                          InvertedIndex::Build(*col));
  contains_indexes_[col] = std::move(index);
  return Status::OK();
}

const InvertedIndex* ColumnStoreEngine::contains_index(
    const Bat* column) const {
  auto it = contains_indexes_.find(column);
  return it == contains_indexes_.end() ? nullptr : it->second.get();
}

namespace {
std::string SegmentedKey(const std::string& table, const std::string& column) {
  return table + '\x1f' + column;
}
}  // namespace

Pager* ColumnStoreEngine::pager() {
  if (options_.hal == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(segmented_mutex_);
  if (pager_ == nullptr) {
    PagerOptions popts;
    if (options_.pager_budget_bytes > 0) {
      popts.budget_bytes = options_.pager_budget_bytes;
    }
    pager_ = std::make_unique<Pager>(options_.hal->arena(), popts);
  }
  return pager_.get();
}

Status ColumnStoreEngine::CreateSegmentedColumn(const std::string& table,
                                                const std::string& column) {
  if (options_.hal == nullptr) {
    return Status::InvalidArgument(
        "segmented columns require a HAL-enabled engine");
  }
  Pager* p = pager();  // construct outside segmented_mutex_
  std::lock_guard<std::mutex> lock(segmented_mutex_);
  const std::string key = SegmentedKey(table, column);
  if (segmented_.count(key) > 0) {
    return Status::AlreadyExists("segmented column '" + table + "." + column +
                                 "' already exists");
  }
  const int64_t target = options_.segment_target_bytes > 0
                             ? options_.segment_target_bytes
                             : kSharedPageBytes;
  segmented_[key] = std::make_unique<SegmentedColumn>(p, target);
  return Status::OK();
}

SegmentedColumn* ColumnStoreEngine::segmented_column(
    const std::string& table, const std::string& column) {
  std::lock_guard<std::mutex> lock(segmented_mutex_);
  auto it = segmented_.find(SegmentedKey(table, column));
  return it == segmented_.end() ? nullptr : it->second.get();
}

Result<uint64_t> ColumnStoreEngine::AppendToSegmented(
    const std::string& table, const std::string& column,
    const std::vector<std::string>& values, bool seal) {
  SegmentedColumn* col = segmented_column(table, column);
  if (col == nullptr) {
    return Status::NotFound("no segmented column '" + table + "." + column +
                            "'");
  }
  for (const std::string& value : values) {
    DOPPIO_RETURN_NOT_OK(col->Append(value));
  }
  if (seal) DOPPIO_RETURN_NOT_OK(col->Seal());
  // No result-cache invalidation: sealed segments are immutable and cached
  // per (segment id, version), so pre-append blocks stay exactly valid.
  return col->version();
}

Result<std::vector<uint8_t>> ColumnStoreEngine::EvalSegmentedFilter(
    const std::string& table, const std::string& column,
    const StringFilterSpec& spec, QueryStats* stats) {
  if (options_.hal == nullptr) {
    return Status::InvalidArgument(
        "segmented scans require a HAL-enabled engine");
  }
  SegmentedColumn* col = segmented_column(table, column);
  if (col == nullptr) {
    return Status::NotFound("no segmented column '" + table + "." + column +
                            "'");
  }
  switch (spec.op) {
    case StringFilterSpec::Op::kRegexpFpga:
    case StringFilterSpec::Op::kHybrid:
    case StringFilterSpec::Op::kAuto:
      break;
    default:
      return Status::InvalidArgument(
          "segmented columns are scanned by the streaming executor; use "
          "REGEXP_FPGA (or AUTO)");
  }
  // REGEXP_FPGA compiles its pattern, so an over-capacity one surfaces
  // CapacityExceeded as on a resident column. REGEXP_HYBRID and
  // REGEXP_AUTO plan it: the whole pattern, or a split's prefix with the
  // plan's continuation, streams; a plan with no device part cannot. The
  // plan's compiles are its config phase, as on a resident column; the
  // REGEXP_FPGA compile is not yet booked in any phase (docs/STORAGE.md).
  CompileOptions copts;
  copts.case_insensitive = spec.case_insensitive;
  const DeviceConfig& device = options_.hal->device_config();
  std::optional<RegexConfig> compiled;
  std::optional<HybridPlan> plan;
  const RegexConfig* config = nullptr;
  std::optional<ScanContinuation> continuation;
  double compile_seconds = 0;
  if (spec.op == StringFilterSpec::Op::kRegexpFpga) {
    DOPPIO_ASSIGN_OR_RETURN(compiled,
                            CompileRegexConfig(spec.pattern, device, copts));
    config = &*compiled;
  } else {
    DOPPIO_ASSIGN_OR_RETURN(plan, PlanHybrid(spec.pattern, device, copts));
    if (plan->strategy == HybridStrategy::kSoftwareOnly) {
      return Status::InvalidArgument(
          "segmented columns stream only patterns with a device part; '" +
          spec.pattern +
          "' is anchored, or neither it nor a '.*'-cut prefix of it fits "
          "the device");
    }
    config = &*plan->fpga_config;
    if (plan->strategy == HybridStrategy::kHybrid) {
      continuation = ContinuationOf(*plan);
    }
    compile_seconds = plan->compile_seconds;
  }

  // The scan runs over the sealed snapshot taken here; rows still staged
  // in the open segment are invisible by design (segment-granular
  // visibility), so a concurrent AppendToSegmented cannot perturb it.
  const SegmentSnapshot snapshot = col->Snapshot();
  StreamOptions sopts;
  sopts.result_cache = options_.result_cache;
  DOPPIO_ASSIGN_OR_RETURN(HudfResult hw,
                          RegexpFpgaStreamed(options_.hal, pager(), snapshot,
                                             *config, sopts,
                                             continuation ? &*continuation
                                                          : nullptr));

  std::vector<uint8_t> bits = MatchesToSelection(*hw.result, snapshot.rows);
  const int64_t matched = FinishSelection(spec.negated, &bits);
  if (stats != nullptr) {
    hw.stats.config_gen_seconds = compile_seconds;
    hw.stats.rows_scanned = snapshot.rows;
    hw.stats.rows_matched = matched;
    if (spec.op == StringFilterSpec::Op::kAuto) {
      hw.stats.strategy = "auto->" + hw.stats.strategy;
    }
    stats->Accumulate(hw.stats);
  }
  return bits;
}

}  // namespace doppio
