// Column-store engine standing in for MonetDB (paper §2.3, §7.1).
//
// Matches the integration-relevant behaviour of the real system:
//  * tables are collections of BATs; string columns use offset+heap;
//  * operators are BAT-at-a-time and fully materialize intermediates;
//  * a query's string predicate is served by one of the strategies the
//    paper compares — LIKE fast path, PCRE-style REGEXP_LIKE, CONTAINS
//    over a pre-built inverted index, or the REGEXP_FPGA HUDF;
//  * intra-operator parallelism partitions the input horizontally across
//    `num_threads` (10 on the paper's machine); `sequential_pipe` disables
//    it, as the paper does for the modified MonetDB build.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bat/table.h"
#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/engine_stats.h"
#include "hal/hal.h"
#include "store/pager.h"
#include "store/segmented_column.h"
#include "text/inverted_index.h"

namespace doppio {

namespace sched {
class ResultCache;
}  // namespace sched

/// A string predicate as it appears in a WHERE clause.
struct StringFilterSpec {
  enum class Op {
    kLike,        // LIKE / ILIKE (fast substring path where possible)
    kRegexpLike,  // REGEXP_LIKE via PCRE-style backtracking
    kRegexpFpga,  // REGEXP_FPGA HUDF (needs a HAL)
    kHybrid,      // REGEXP_FPGA with automatic hybrid fallback
    kContains,    // CONTAINS over the inverted index
    kAuto,        // cost-model-driven choice among the above (see
                  // db/cost_model.h — the optimizer capability §9 wants)
  };
  Op op = Op::kLike;
  std::string pattern;
  bool case_insensitive = false;
  bool negated = false;
};

class ColumnStoreEngine {
 public:
  struct Options {
    int num_threads = 10;
    bool sequential_pipe = false;
    /// When set, REGEXP_FPGA is available and BATs should be allocated
    /// from the HAL's shared-memory allocator.
    Hal* hal = nullptr;
    /// Optional versioned match-result cache (docs/RESULT_CACHE.md). The
    /// hybrid strategy reuses cached pre-filters through it, and ingest
    /// (AppendToColumn) invalidates the mutated column explicitly. Null =
    /// exact pre-cache behaviour.
    sched::ResultCache* result_cache = nullptr;
    /// Byte budget for the out-of-core pager's resident working set
    /// (segmented columns only; docs/STORAGE.md). 0 = pager default.
    int64_t pager_budget_bytes = 0;
    /// Target sealed-segment payload size for segmented columns.
    /// 0 = one shared-arena page (2 MiB).
    int64_t segment_target_bytes = 0;
  };

  explicit ColumnStoreEngine(const Options& options);
  ~ColumnStoreEngine();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(ColumnStoreEngine);

  Catalog* catalog() { return &catalog_; }
  ThreadPool* pool() { return pool_.get(); }
  Hal* hal() const { return options_.hal; }
  const Options& options() const { return options_; }

  /// Allocator for new BATs: the HAL's shared allocator when available
  /// (every BAT in FPGA-visible memory, §4.2.1), else malloc.
  BufferAllocator* allocator() const;

  /// Evaluates a string predicate over a column; returns one byte per row
  /// (1 = row satisfies the predicate, after negation is applied). Holds
  /// the column's epoch guard in read mode for the duration of the scan;
  /// a concurrent AppendToColumn on the same column observes the guard
  /// and fails with Overloaded instead of reallocating the BAT under the
  /// scan. A scan arriving while an append holds the guard fails the same
  /// way (both are retryable).
  Result<std::vector<uint8_t>> EvalStringFilter(const Bat& column,
                                                const StringFilterSpec& spec,
                                                QueryStats* stats);

  /// Streaming-ingest helper: appends `values` to table.column. Every
  /// append bumps the column's content version (Bat::version), so
  /// snapshot-keyed result caches stop serving pre-append entries; when a
  /// result cache is attached (Options::result_cache) the column is also
  /// invalidated explicitly, freeing its budget immediately. Returns the
  /// column's post-append version. Ingest is serialized against in-flight
  /// scans by the column's epoch guard: an append racing a scan of the
  /// same column returns Overloaded (typed, retryable) instead of
  /// reallocating the BAT under it. Segmented columns (AppendToSegmented)
  /// do not need the guard — scans there run over immutable sealed
  /// snapshots.
  Result<uint64_t> AppendToColumn(const std::string& table,
                                  const std::string& column,
                                  const std::vector<std::string>& values);

  // ---- Out-of-core segmented columns (src/store, docs/STORAGE.md) ----

  /// The engine's segment pager, lazily constructed over the HAL arena
  /// with Options::pager_budget_bytes. Null when the engine has no HAL.
  Pager* pager();

  /// Registers an out-of-core segmented string column named
  /// `table.column`. Segmented columns live beside the resident BAT
  /// catalog: rows arrive through AppendToSegmented, seal into immutable
  /// spill-backed segments, and are scanned by streaming windows through
  /// the device (EvalSegmentedFilter). Requires a HAL.
  Status CreateSegmentedColumn(const std::string& table,
                               const std::string& column);

  /// Looks up a segmented column registered by CreateSegmentedColumn.
  SegmentedColumn* segmented_column(const std::string& table,
                                    const std::string& column);

  /// Streaming ingest into a segmented column. Visibility is
  /// segment-granular: rows become scannable when their segment seals
  /// (automatically at the segment-size target, or immediately when
  /// `seal` is set). Scans snapshot the sealed chain, so ingest never
  /// conflicts with an in-flight scan — no epoch guard, no Overloaded.
  /// Sealed segments are immutable with stable (id, version) identity,
  /// so cached per-segment result blocks survive the append (nothing to
  /// invalidate). Returns the column's post-append version.
  Result<uint64_t> AppendToSegmented(const std::string& table,
                                     const std::string& column,
                                     const std::vector<std::string>& values,
                                     bool seal = false);

  /// Evaluates a string predicate over a segmented column's sealed
  /// snapshot via the double-buffered streaming executor. Only the FPGA
  /// strategies stream. kRegexpFpga compiles the pattern and fails with
  /// CapacityExceeded when it does not fit the device. kHybrid and kAuto
  /// plan it (PlanHybrid) and stream the whole pattern ("fpga-streamed")
  /// or a split's prefix with its continuation ("hybrid-streamed"); a
  /// plan with no device part (an anchored pattern, or one no '.*'-cut
  /// prefix of which fits) fails with InvalidArgument. Whatever streams
  /// returns one byte per sealed row, bit-identical to EvalStringFilter
  /// over a resident BAT holding the same strings. A plan's compiles are
  /// booked as the config phase.
  Result<std::vector<uint8_t>> EvalSegmentedFilter(
      const std::string& table, const std::string& column,
      const StringFilterSpec& spec, QueryStats* stats);

  /// Builds (or rebuilds) the CONTAINS index for table.column.
  Status BuildContainsIndex(const std::string& table,
                            const std::string& column);
  const InvertedIndex* contains_index(const Bat* column) const;

  /// Effective partition count for intra-operator parallelism.
  int partitions() const {
    return options_.sequential_pipe ? 1 : options_.num_threads;
  }

  /// The engine's operator cost model (calibrated lazily on first use).
  const class OperatorCostModel& cost_model();

 private:
  /// Ingest/query epoch guard for one resident column (keyed by Bat id).
  /// A Dekker-style try-rwlock: scans take the read side, AppendToColumn
  /// the write side, and a conflict returns false (mapped to Overloaded)
  /// instead of blocking — sequential consistency guarantees at least one
  /// of two racing sides observes the other.
  struct ColumnEpochGuard {
    std::atomic<int32_t> readers{0};
    std::atomic<bool> writer{false};
    bool TryBeginRead();
    void EndRead();
    bool TryBeginWrite();
    void EndWrite();
  };
  ColumnEpochGuard* EpochGuardFor(uint64_t column_id);

  Result<std::vector<uint8_t>> EvalLike(const Bat& column,
                                        const StringFilterSpec& spec);
  Result<std::vector<uint8_t>> EvalRegexp(const Bat& column,
                                          const StringFilterSpec& spec);
  /// kRegexpFpga or kHybrid. `plan` is the spec's compiled plan:
  /// required for kHybrid; for kRegexpFpga, null compiles the pattern.
  /// Fills `stats` (the predicate's own) with phases and strategy.
  Result<std::vector<uint8_t>> EvalFpga(const Bat& column,
                                        const StringFilterSpec& spec,
                                        const struct HybridPlan* plan,
                                        QueryStats* stats);
  Result<std::vector<uint8_t>> EvalContains(const Bat& column,
                                            const StringFilterSpec& spec);

  /// Runs `fn(first_row, end_row, partition)` across partitions.
  void ParallelOverRows(int64_t num_rows,
                        const std::function<void(int64_t, int64_t, int)>& fn);

  Options options_;
  Catalog catalog_;
  std::unique_ptr<ThreadPool> pool_;
  std::map<const Bat*, std::unique_ptr<InvertedIndex>> contains_indexes_;
  std::unique_ptr<class OperatorCostModel> cost_model_;

  std::mutex epoch_mutex_;  // guards the guard map, not the guards
  std::map<uint64_t, std::unique_ptr<ColumnEpochGuard>> epoch_guards_;

  std::mutex segmented_mutex_;  // guards pager_ construction + registry
  std::unique_ptr<Pager> pager_;
  std::map<std::string, std::unique_ptr<SegmentedColumn>> segmented_;
};

}  // namespace doppio
