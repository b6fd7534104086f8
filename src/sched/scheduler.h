// Multi-tenant query scheduler: the single admission point for FPGA
// offload in a shared deployment.
//
// The paper's prototype wires each client straight into the HAL: whoever
// submits first owns the engines, a burst from one tenant starves the
// rest, and nothing bounds the queue between the database and the device.
// This subsystem adds the missing resource-management layer on top of the
// unchanged HAL/device stack:
//
//  * Sessions (sched/session.h) — per-tenant identity, weight and quota.
//  * Admission control — a bounded global queue and bounded per-session
//    queues. When either bound is hit, Submit fails fast with Overloaded
//    (back off and retry) instead of queueing unboundedly; the device
//    ring's own bound surfaces as ResourceExhausted and is absorbed by
//    the retry lifecycle.
//  * Weighted fair sharing — deficit round-robin over the session queues,
//    cost measured in rows, so one tenant's scan storm cannot starve
//    another tenant's point queries. Each dispatch round assembles a
//    *wave* of queries.
//  * Cross-query batching — same-pattern queries (across sessions) share
//    one compiled program via the LRU ProgramCache and are coalesced into
//    one scan plan (db/hudf ExecuteScanPlan): every query's slices are
//    placed across the pool before any is awaited, so the wave overlaps
//    across the devices' engines in virtual time. Results demultiplex per
//    query by construction — each job writes only its own query's result
//    range.
//  * Pattern-set compilation (opt-in, Options::set_compilation) —
//    *different* patterns scanning the same column coalesce into ONE
//    set-compiled scan: the union NFA with tagged accepts emits each
//    member's matches on its own output stream, demuxed per query after
//    the wave (docs/PATTERN_SETS.md). Unions that exceed one PU fall back
//    to the classic multi-pass waves.
//  * Over-capacity patterns — a pattern that exceeds the deployed
//    geometry is planned like REGEXP_HYBRID (db/hybrid_executor.h), and
//    the plan is kept in the ProgramCache (GetOrPlan): a split scans its
//    '.*'-cut prefix's program, routed, cached and coalesced like any
//    other, and the scan executor resumes each candidate with the plan's
//    continuation. Only a pattern with no device part runs on the host
//    lazy DFA.
//  * Cost-model routing — small inputs run on the host thread pool (the
//    same compiled program the engines execute, so results stay
//    bit-identical), freeing engine time for the scans the FPGA actually
//    wins.
//
// Execution is cooperative: the scheduler has no dispatcher thread.
// Waiters take turns assembling and executing waves — one dispatcher at a
// time — which keeps the virtual clock single-threaded per wave and the
// whole scheduler deterministic when driven from one thread. Every
// admitted query must eventually be Wait()ed (or the scheduler shut
// down); metrics land in obs::MetricsRegistry under doppio.sched.*.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/cost_model.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "sched/program_cache.h"
#include "sched/result_cache.h"
#include "sched/session.h"

namespace doppio {
namespace sched {

namespace internal {
struct Request;
}  // namespace internal

/// How a query was executed once admitted.
enum class Route {
  kFpga,        // batched partitioned submission on the device
  kCpuProgram,  // host thread pool, same compiled PU program (bit-identical)
  kCpuDfa,      // host lazy DFA — the pattern has no device part
  kCache,       // served from the versioned result cache, no engine used
};

struct ScheduledResult {
  HudfResult hudf;
  Route route = Route::kFpga;
  /// Global completion order (1-based) across all sessions — lets tests
  /// and clients reason about fairness without wall clocks.
  uint64_t completion_seq = 0;
  /// Batch slots that shared the FPGA wave this query ran in (1 when
  /// routed to the CPU or dispatched alone). A set-compiled scan is ONE
  /// slot however many patterns it serves.
  int batch_width = 1;
  /// Distinct patterns in the set-compiled scan that served this query
  /// (1 = a classic single-pattern scan). See Options::set_compilation.
  int set_width = 1;
};

/// Opaque handle to an admitted query. Obtained from Submit, consumed by
/// Wait. Movable and copyable (copies reference the same query).
class QueryTicket {
 public:
  QueryTicket() = default;
  bool valid() const { return request_ != nullptr; }

 private:
  friend class QueryScheduler;
  explicit QueryTicket(std::shared_ptr<internal::Request> request);
  std::shared_ptr<internal::Request> request_;
};

class QueryScheduler {
 public:
  struct Options {
    /// Global admission bound: queries queued (admitted, not yet
    /// dispatched) across all sessions. Submit rejects with Overloaded
    /// beyond this.
    int global_queue_limit = 64;
    /// Deficit round-robin quantum, in rows, refilled per session per
    /// dispatch round (scaled by the session's weight).
    int64_t quantum_rows = 64 * 1024;
    /// Maximum queries coalesced into one FPGA wave. The wave's engine
    /// budget is split across its queries (partitions per query =
    /// num_engines / width, min 1).
    int max_batch_width = 4;
    /// Workers for CPU-routed queries.
    int cpu_threads = 2;
    /// Consult the operator cost model (db/cost_model) at admission and
    /// route queries the host serves faster — small inputs, mostly — to
    /// the CPU pool. Off = every in-capacity query goes to the device.
    bool cost_routing = true;
    /// Inputs at or below this many rows always route to the CPU when
    /// cost_routing is on (the FPGA job setup dominates tiny scans).
    int64_t cpu_route_max_rows = 256;
    /// Simulator-only throughput mode: FPGA jobs derive exact traffic and
    /// timing but skip the functional pass (results zeroed). For
    /// benchmarks; never set on correctness paths.
    bool timing_only = false;
    /// Compile *different* patterns over the same input column into one
    /// set program (union NFA with tagged accepts, docs/PATTERN_SETS.md)
    /// when the union fits one PU, so N same-column tenants cost one scan
    /// instead of N. Per-stream results stay bit-identical to solo runs;
    /// a union that exceeds capacity falls back to the multi-pass path.
    /// A set holds at most 8 distinct patterns.
    /// Off by default: the paper's per-pattern waves stay byte-identical.
    bool set_compilation = false;
    /// Versioned match-result cache (docs/RESULT_CACHE.md): a wave head
    /// whose (compiled-program fingerprint, column id, column version)
    /// hits is served the cached block without occupying an engine,
    /// charged to its session as a zero-cost grant, under a 64 MiB LRU
    /// byte budget. Off by default: the paper's every-query-rescans waves
    /// stay byte-identical.
    bool result_cache = false;
  };

  explicit QueryScheduler(Hal* hal);  // default Options
  QueryScheduler(Hal* hal, Options options);
  /// Fails every still-queued query, waits out an in-flight wave, drains
  /// the CPU pool. Outstanding Wait() calls must have returned before the
  /// scheduler is destroyed.
  ~QueryScheduler();

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(QueryScheduler);

  /// Creates a session; the scheduler owns it. Sessions live as long as
  /// the scheduler.
  Session* CreateSession(SessionOptions options = {});

  /// Admits one regex query over a string BAT. Fails fast with Overloaded
  /// when the session's or the global queue bound is reached — the caller
  /// should back off; Overloaded is deliberately not fallback-eligible.
  /// The input BAT must stay alive until Wait returns.
  Result<QueryTicket> Submit(Session* session, const Bat& input,
                             std::string_view pattern,
                             const CompileOptions& options = {});

  /// Blocks until the ticket's query completes, cooperatively dispatching
  /// queued waves while it waits. Each ticket completes exactly once;
  /// waiting twice on the same query returns InvalidArgument.
  Result<ScheduledResult> Wait(const QueryTicket& ticket);

  /// Submit + Wait in one call.
  Result<ScheduledResult> Execute(Session* session, const Bat& input,
                                  std::string_view pattern,
                                  const CompileOptions& options = {});

  /// Fails every queued query with Unavailable and rejects new Submits;
  /// in-flight work completes, then the CPU pool drains deterministically
  /// (ThreadPool::Shutdown). Idempotent; also run by the destructor. The
  /// scheduler object stays usable for Wait() on already-completed
  /// tickets.
  void Shutdown();

  ProgramCache& program_cache() { return cache_; }
  /// The versioned match-result cache; null unless Options::result_cache.
  ResultCache* result_cache() { return results_.get(); }
  const Options& options() const { return options_; }
  /// Queries admitted but not yet dispatched, across all sessions.
  int queue_depth() const;

 private:
  struct Wave {
    std::vector<std::shared_ptr<internal::Request>> fpga;
    std::vector<std::shared_ptr<internal::Request>> cpu;
    /// Requests whose admission snapshot hit the result cache exactly:
    /// served from the cached block in ExecuteWave, no engine, no deficit.
    std::vector<std::shared_ptr<internal::Request>> cached;
    bool empty() const {
      return fpga.empty() && cpu.empty() && cached.empty();
    }
  };

  /// Deficit-round-robin wave assembly plus the same-pattern coalescing
  /// pass. Requires mutex_; leaves picked requests out of every queue.
  Wave PickWaveLocked();
  /// Runs a wave outside the scheduler mutex: FPGA queries as one batched
  /// submission on the calling thread, CPU queries on the pool.
  void ExecuteWave(Wave* wave);
  /// Marks a finished wave's requests complete. Requires mutex_.
  void FinalizeWaveLocked(Wave* wave);
  void RunCpuRequest(internal::Request* request);

  Hal* const hal_;
  const Options options_;
  ProgramCache cache_;
  std::unique_ptr<ResultCache> results_;
  std::unique_ptr<OperatorCostModel> cost_model_;  // null: routing off
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<Session*, std::deque<std::shared_ptr<internal::Request>>>
      queues_;
  size_t rr_cursor_ = 0;
  int global_queued_ = 0;
  bool dispatch_active_ = false;
  bool shutting_down_ = false;
  uint64_t completion_counter_ = 0;
};

}  // namespace sched
}  // namespace doppio
