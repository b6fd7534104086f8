#include "sched/scheduler.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace doppio {
namespace sched {

namespace {

// Distinct compiled programs kept by the LRU ProgramCache.
constexpr int kProgramCacheCapacity = 16;
// Distinct patterns coalesced into one set-compiled scan; the
// tagged-accept encoding carries at most 64 streams.
constexpr int kMaxSetPatterns = 8;
static_assert(kMaxSetPatterns >= 2 && kMaxSetPatterns <= 64);
// LRU byte budget of the result cache.
constexpr int64_t kResultCacheBytes = 64ll << 20;

obs::Counter& AdmittedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.admitted", "queries accepted by scheduler admission");
  return *c;
}

obs::Counter& OverloadedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.rejected_overloaded",
      "queries rejected with Overloaded at admission");
  return *c;
}

obs::Counter& WavesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.waves", "dispatch waves executed");
  return *c;
}

obs::Counter& CoalescedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.coalesced",
      "queries pulled into a wave by same-pattern coalescing");
  return *c;
}

obs::Counter& RouteFpgaCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.route_fpga", "queries dispatched to the device");
  return *c;
}

obs::Counter& RouteCpuCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.route_cpu", "queries routed to the host pool");
  return *c;
}

obs::Counter& RouteCacheCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.route_cache",
      "queries served from the versioned result cache");
  return *c;
}

obs::Gauge& QueueDepthGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.sched.queue_depth",
      "queries admitted and not yet dispatched, all sessions");
  return *g;
}

obs::Histogram& QueueDepthHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.sched.queue_depth_at_admission", obs::DepthBuckets(),
      "global queue depth observed by each successful admission");
  return *h;
}

obs::Histogram& BatchWidthHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.sched.batch_width", obs::DepthBuckets(),
      "queries per FPGA wave");
  return *h;
}

obs::Counter& SetCoalescedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.coalesced",
      "queries pulled into a wave by pattern-set coalescing");
  return *c;
}

obs::Counter& SetWavesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.waves",
      "set-compiled scans submitted (one per multi-pattern batch slot)");
  return *c;
}

obs::Counter& SetQueriesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.queries",
      "queries served by a set-compiled scan");
  return *c;
}

obs::Counter& SetFallbackCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.set_compile.fallback",
      "same-column groups that fell back to multi-pass scans");
  return *c;
}

obs::Histogram& SetWidthHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.sched.set_compile.width", obs::DepthBuckets(),
      "distinct patterns per set-compiled scan");
  return *h;
}

/// Deep copy of a demuxed result column — duplicate-pattern queries of
/// one set scan share a stream, so all but one need their own BAT.
Result<HudfResult> CopyColumn(const HudfResult& source) {
  HudfResult out;
  out.stats = source.stats;
  const int64_t n = source.result->count();
  DOPPIO_ASSIGN_OR_RETURN(out.result, ZeroedInt16Bat(n));
  if (n > 0) {
    std::memcpy(out.result->mutable_tail_data(), source.result->tail_data(),
                static_cast<size_t>(n) * 2);
  }
  return out;
}

}  // namespace

namespace internal {

/// One admitted query, shared between the submitting thread, the
/// dispatcher that executes it, and the waiter that collects it. The
/// routing fields are immutable after Submit, but for the dispatcher
/// setting `route` to kCache under the mutex; the completion fields are
/// written by the dispatcher (CPU requests: before the pool future is
/// waited) and read by waiters only after `done` flips under the
/// scheduler mutex.
struct Request {
  Session* session = nullptr;
  const Bat* input = nullptr;
  std::string pattern;
  CompileOptions options;
  /// The program the request scans: its pattern's, or a split plan's
  /// prefix. Null for kCpuDfa.
  std::shared_ptr<const CachedProgram> program;
  /// A split plan's continuation, attached to every scan of `program`;
  /// null for any other request.
  std::shared_ptr<const ScanContinuation> continuation;
  std::string key;  // ProgramCache::MakeKey — wave-coalescing identity
  Route route = Route::kFpga;
  int64_t cost_rows = 1;  // DRR charge
  bool timing_only = false;
  Stopwatch latency_watch;  // admission -> completion, host wall clock

  // --- Admission snapshot (docs/RESULT_CACHE.md) --------------------------
  // The column's identity, content version and row count as of Submit.
  // Execution scans exactly admit_rows rows whatever the input grows to,
  // and the result cache keys on (fingerprint, column id, version).
  ColumnSnapshot column;
  int64_t admit_rows = 0;
  /// The result cache's answer for the snapshot: an exact block serves
  /// the request whole (Route::kCache); a prefix block from a shorter,
  /// earlier version of this append-only column answers its rows
  /// verbatim while execution scans only the appended tail, and the
  /// merged block re-enters the cache under the current version.
  CacheHit cache;
  /// Set by the dispatcher's first probe, the only one that counts a
  /// miss and looks for a prefix block: a request re-queued across waves
  /// re-probes for an exact block only.
  bool probed = false;

  // --- Completion state ---------------------------------------------------
  bool done = false;
  bool waited = false;
  Status status;
  HudfResult hudf;
  uint64_t completion_seq = 0;
  int batch_width = 1;
  int set_width = 1;
};

}  // namespace internal

using internal::Request;

QueryTicket::QueryTicket(std::shared_ptr<Request> request)
    : request_(std::move(request)) {}

QueryScheduler::QueryScheduler(Hal* hal)
    : QueryScheduler(hal, Options()) {}

QueryScheduler::QueryScheduler(Hal* hal, Options options)
    : hal_(hal),
      options_(options),
      cache_(hal->device_config(), kProgramCacheCapacity),
      pool_(std::max(1, options.cpu_threads)) {
  DOPPIO_CHECK(hal_ != nullptr);
  DOPPIO_CHECK(options_.global_queue_limit >= 1);
  DOPPIO_CHECK(options_.quantum_rows >= 1);
  DOPPIO_CHECK(options_.max_batch_width >= 1);
  if (options_.cost_routing) {
    cost_model_ = std::make_unique<OperatorCostModel>(
        hal_->device_config(), OperatorCostModel::Measure());
  }
  if (options_.result_cache) {
    results_ = std::make_unique<ResultCache>(kResultCacheBytes);
  }
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!shutting_down_) {
      shutting_down_ = true;
      // Fail everything still queued: nobody will dispatch it anymore.
      for (auto& [session, queue] : queues_) {
        for (auto& request : queue) {
          request->done = true;
          request->status =
              Status::Unavailable("scheduler shut down with query queued");
          request->session->completed_.fetch_add(1,
                                                 std::memory_order_relaxed);
        }
        session->queued_ = 0;
        queue.clear();
      }
      global_queued_ = 0;
      QueueDepthGauge().Set(0);
    }
    cv_.notify_all();
    // An in-flight wave finishes normally; wait it out so the device and
    // the pool see no new work after this point.
    cv_.wait(lock, [this] { return !dispatch_active_; });
  }
  // Deterministic teardown: every CPU-routed slice already handed to the
  // pool runs to completion before the workers join.
  pool_.Shutdown();
}

Session* QueryScheduler::CreateSession(SessionOptions options) {
  std::string metric_name =
      "doppio.sched.tenant." + options.tenant + ".latency_seconds";
  obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      metric_name, obs::LatencySecondsBuckets(),
      "admission-to-completion latency for this tenant's queries");
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.emplace_back(new Session(std::move(options), latency));
  Session* session = sessions_.back().get();
  queues_[session];  // materialize the queue slot
  return session;
}

Result<QueryTicket> QueryScheduler::Submit(Session* session, const Bat& input,
                                           std::string_view pattern,
                                           const CompileOptions& options) {
  if (session == nullptr) {
    return Status::InvalidArgument("null session");
  }
  if (input.type() != ValueType::kString) {
    return Status::InvalidArgument("regex job input must be a string BAT");
  }

  auto request = std::make_shared<Request>();
  request->session = session;
  request->input = &input;
  request->pattern = std::string(pattern);
  request->options = options;
  request->key = ProgramCache::MakeKey(pattern, options);
  request->timing_only = options_.timing_only;
  // Admission snapshot: the query scans exactly the rows visible NOW. An
  // append landing between here and wave execution bumps the version (so
  // the cache never pairs this snapshot with post-append rows) and grows
  // the count (which execution ignores in favour of admit_rows).
  request->column = {input.id(), input.version()};
  request->admit_rows = input.count();
  request->cost_rows = std::max<int64_t>(request->admit_rows, 1);

  // Route at admission: compile or plan (or hit the cache). A pattern
  // that exceeds the geometry is planned once: a split scans its prefix's
  // cached program and carries the plan's continuation, and only a plan
  // with no device part overflows to the CPU DFA. Then consult the cost
  // model for inputs the host serves faster than a device round-trip.
  DOPPIO_ASSIGN_OR_RETURN(CachedPlan planned,
                          cache_.GetOrPlan(pattern, options));
  request->program = std::move(planned.program);
  request->continuation = std::move(planned.continuation);
  if (request->program == nullptr) request->route = Route::kCpuDfa;
  // DOPPIO_FORCE_BACKEND=fpga pins eligible work on the device: no
  // cost-model CPU routing (patterns with no device part still go
  // kCpuDfa — the device cannot hold them at all).
  const bool force_fpga = ForcedBackend() == BackendId::kFpgaSim;
  if (request->route == Route::kFpga && options_.cost_routing &&
      !options_.timing_only && !force_fpga) {
    if (input.count() <= options_.cpu_route_max_rows) {
      request->route = Route::kCpuProgram;
    } else if (cost_model_ != nullptr) {
      TableStats stats;
      stats.rows = input.count();
      stats.heap_bytes = input.heap()->size_bytes();
      // Both predictions read the program the cache already holds. The
      // CPU route runs the registry-chosen host backend on one pool
      // worker; the prediction knows which backend that is.
      const double fpga_seconds =
          cost_model_->PredictFpga(request->program->config, stats);
      auto host =
          cost_model_->PredictHostProgram(*request->program->program, stats);
      if (host.ok() && host->seconds < fpga_seconds) {
        request->route = Route::kCpuProgram;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::Unavailable("scheduler is shut down");
    }
    if (global_queued_ >= options_.global_queue_limit) {
      session->rejected_.fetch_add(1, std::memory_order_relaxed);
      OverloadedCounter().Add();
      return Status::Overloaded("scheduler global queue full (" +
                                std::to_string(global_queued_) +
                                " queries queued)");
    }
    if (session->queued_ >= session->options().max_queued) {
      session->rejected_.fetch_add(1, std::memory_order_relaxed);
      OverloadedCounter().Add();
      return Status::Overloaded("session queue full for tenant '" +
                                session->tenant() + "' (" +
                                std::to_string(session->queued_) +
                                " queries queued)");
    }
    queues_[session].push_back(request);
    ++session->queued_;
    ++global_queued_;
    session->admitted_.fetch_add(1, std::memory_order_relaxed);
    AdmittedCounter().Add();
    QueueDepthGauge().Set(global_queued_);
    QueueDepthHistogram().Observe(static_cast<double>(global_queued_));
  }
  cv_.notify_all();
  return QueryTicket(std::move(request));
}

Result<ScheduledResult> QueryScheduler::Wait(const QueryTicket& ticket) {
  if (!ticket.valid()) {
    return Status::InvalidArgument("invalid (default) query ticket");
  }
  std::shared_ptr<Request> request = ticket.request_;

  std::unique_lock<std::mutex> lock(mutex_);
  while (!request->done) {
    if (!dispatch_active_ && !shutting_down_ && global_queued_ > 0) {
      // This waiter becomes the dispatcher for one wave: assemble under
      // the lock, execute outside it (the device serializes internally),
      // finalize back under the lock. Other waiters sleep meanwhile.
      dispatch_active_ = true;
      Wave wave = PickWaveLocked();
      lock.unlock();
      ExecuteWave(&wave);
      lock.lock();
      dispatch_active_ = false;
      FinalizeWaveLocked(&wave);
      cv_.notify_all();
    } else {
      cv_.wait(lock);
    }
  }
  if (request->waited) {
    return Status::InvalidArgument("query ticket already waited on");
  }
  request->waited = true;
  if (!request->status.ok()) return request->status;

  ScheduledResult out;
  out.hudf = std::move(request->hudf);
  out.route = request->route;
  out.completion_seq = request->completion_seq;
  out.batch_width = request->batch_width;
  out.set_width = request->set_width;
  return out;
}

Result<ScheduledResult> QueryScheduler::Execute(Session* session,
                                                const Bat& input,
                                                std::string_view pattern,
                                                const CompileOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(QueryTicket ticket,
                          Submit(session, input, pattern, options));
  return Wait(ticket);
}

int QueryScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return global_queued_;
}

QueryScheduler::Wave QueryScheduler::PickWaveLocked() {
  Wave wave;
  const int width = options_.max_batch_width;
  const size_t n = sessions_.size();

  // Result-cache sweep: before any deficit accounting, serve session heads
  // whose admission snapshot (fingerprint, column, version, rows) hits the
  // cache. A hit is a zero-cost grant — the session's deficit is not
  // charged, because the query consumes no engine time. Popping a head can
  // expose another hit behind it, so sweep until a full pass pulls
  // nothing. Head-of-line only: per-session FIFO order is preserved.
  // A split's hit is no such grant: its continuation still resumes every
  // candidate on the host. It is marked Route::kCache and left queued, and
  // deficit round-robin hands it to the CPU pool with the other host work.
  if (results_ != nullptr) {
    bool pulled = true;
    while (pulled) {
      pulled = false;
      for (const auto& owned : sessions_) {
        Session* session = owned.get();
        auto& queue = queues_[session];
        if (queue.empty()) continue;
        std::shared_ptr<Request>& head = queue.front();
        if (head->program == nullptr) continue;  // kCpuDfa: nothing keyed
        if (head->route == Route::kCache) continue;  // a split's hit
        // Every pick re-probes for an exact block, so a queued request
        // still hits one inserted meanwhile. Only the first probe counts
        // a miss and looks for a prefix block; a later miss keeps it. A
        // prefix-served request still scans the appended tail, queued
        // with normal DRR charging.
        CacheHit hit = ResolveCached(
            results_.get(), head->program->config, head->column,
            head->admit_rows,
            {.prefix = !head->probed, .count_miss = !head->probed});
        head->probed = true;
        if (!hit.exact) {
          if (hit.block != nullptr) head->cache = std::move(hit);
          continue;
        }
        head->cache = std::move(hit);
        if (head->continuation != nullptr) {
          head->route = Route::kCache;
          continue;
        }
        wave.cached.push_back(std::move(head));
        queue.pop_front();
        --session->queued_;
        --global_queued_;
        pulled = true;
      }
    }
  }

  // Deficit round-robin. The outer loop makes progress inevitable: every
  // pass refills each non-empty session's deficit by quantum x weight, so
  // any head-of-line request is eventually affordable no matter how large
  // its row count is relative to the quantum.
  while (wave.empty() && global_queued_ > 0) {
    for (size_t step = 0; step < n; ++step) {
      Session* session = sessions_[(rr_cursor_ + step) % n].get();
      auto& queue = queues_[session];
      if (queue.empty()) {
        session->deficit_rows_ = 0;  // classic DRR: idle queues hold no credit
        continue;
      }
      session->deficit_rows_ +=
          options_.quantum_rows * session->options().weight;
      while (!queue.empty() &&
             static_cast<int>(wave.fpga.size()) < width &&
             static_cast<int>(wave.cpu.size()) < width) {
        std::shared_ptr<Request>& head = queue.front();
        if (head->cost_rows > session->deficit_rows_) break;
        session->deficit_rows_ -= head->cost_rows;
        (head->route == Route::kFpga ? wave.fpga : wave.cpu)
            .push_back(std::move(head));
        queue.pop_front();
        --session->queued_;
        --global_queued_;
      }
      if (static_cast<int>(wave.fpga.size()) >= width &&
          static_cast<int>(wave.cpu.size()) >= width) {
        break;
      }
    }
    rr_cursor_ = n == 0 ? 0 : (rr_cursor_ + 1) % n;
  }

  // Same-pattern coalescing: pull head-of-line queries that share a wave
  // member's compiled program into this wave (across sessions), charging
  // their sessions' deficits. Head-of-line only, so per-session FIFO
  // order is preserved.
  bool changed = true;
  while (changed && static_cast<int>(wave.fpga.size()) < width) {
    changed = false;
    for (const auto& owned : sessions_) {
      Session* session = owned.get();
      auto& queue = queues_[session];
      if (queue.empty()) continue;
      std::shared_ptr<Request>& head = queue.front();
      if (head->route != Route::kFpga) continue;
      bool compatible = false;
      for (const auto& member : wave.fpga) {
        if (member->key == head->key) {
          compatible = true;
          break;
        }
      }
      if (!compatible) continue;
      session->deficit_rows_ -= head->cost_rows;  // may go negative: a loan
      wave.fpga.push_back(std::move(head));
      queue.pop_front();
      --session->queued_;
      --global_queued_;
      CoalescedCounter().Add();
      changed = true;
      if (static_cast<int>(wave.fpga.size()) >= width) break;
    }
  }

  // Pattern-set coalescing (opt-in): pull head-of-line FPGA queries whose
  // pattern DIFFERS from a wave member's but scans the SAME input column,
  // when the union of the group's distinct programs still fits one PU
  // (exact on states; conservative on matchers, since token dedup can
  // only shrink the union). Such queries join an existing batch slot
  // instead of consuming a new one, so the width cap does not apply — but
  // each pulled query is charged to ITS OWN session's deficit, exactly
  // like same-pattern coalescing: a set-compiled scan serving K tenants
  // debits every tenant for the rows it asked to scan, so sharing a scan
  // never lets a heavy tenant ride free on a light one's turn.
  // Head-of-line only, preserving per-session FIFO order.
  if (options_.set_compilation) {
    const DeviceConfig& device = hal_->device_config();
    bool pulled = true;
    while (pulled) {
      pulled = false;
      for (const auto& owned : sessions_) {
        Session* session = owned.get();
        auto& queue = queues_[session];
        if (queue.empty()) continue;
        std::shared_ptr<Request>& head = queue.front();
        // A split never joins a set: its continuation runs on its own
        // scan.
        if (head->route != Route::kFpga || head->program == nullptr ||
            head->continuation != nullptr) {
          continue;
        }
        // The candidate's same-column group in the current wave.
        bool same_input = false;
        bool same_key = false;
        int distinct_keys = 0;
        int states = 0;
        int matchers = 0;
        std::vector<std::string_view> keys_seen;
        for (const auto& member : wave.fpga) {
          if (member->input != head->input ||
              member->continuation != nullptr) {
            continue;
          }
          same_input = true;
          if (member->key == head->key) same_key = true;
          bool counted = false;
          for (std::string_view key : keys_seen) {
            if (key == member->key) {
              counted = true;
              break;
            }
          }
          if (counted) continue;
          keys_seen.push_back(member->key);
          ++distinct_keys;
          states += member->program->config.states_used;
          matchers += member->program->config.matchers_used;
        }
        // Same-key pulls are the classic pass's job (and bounded by the
        // width cap); this pass only grows the *pattern set*.
        if (!same_input || same_key) continue;
        if (distinct_keys + 1 > kMaxSetPatterns) continue;
        if (states + head->program->config.states_used > device.max_states) {
          continue;
        }
        if (matchers + head->program->config.matchers_used >
            device.max_chars) {
          continue;
        }
        session->deficit_rows_ -= head->cost_rows;  // may go negative: a loan
        wave.fpga.push_back(std::move(head));
        queue.pop_front();
        --session->queued_;
        --global_queued_;
        SetCoalescedCounter().Add();
        pulled = true;
      }
    }
  }

  QueueDepthGauge().Set(global_queued_);
  WavesCounter().Add();
  return wave;
}

void QueryScheduler::ExecuteWave(Wave* wave) {
  // Cache-served queries first, as one host-only plan of kCached queries:
  // no engine, and the executor refuses a block that does not cover the
  // admitted rows.
  if (!wave->cached.empty()) {
    ScanPlan plan;
    plan.device = &hal_->device_config();
    std::vector<std::unique_ptr<Bat>> results(wave->cached.size());
    Status status = Status::OK();
    for (size_t i = 0; i < wave->cached.size() && status.ok(); ++i) {
      const Request& request = *wave->cached[i];
      auto result =
          ZeroedInt16Bat(request.admit_rows, hal_->bat_allocator());
      status = result.status();
      if (!status.ok()) break;
      results[i] = std::move(*result);
      ScanQuery& query = plan.queries.emplace_back();
      query.result = results[i].get();
      query.span_name = "sched_cache_hit";
      query.AddSlices(request.cache, 0, request.admit_rows,
                      SliceSource::kHost);
    }
    if (status.ok()) status = ExecuteScanPlan(&plan);
    for (size_t i = 0; i < wave->cached.size(); ++i) {
      Request& request = *wave->cached[i];
      if (!status.ok()) {
        request.status = status;
        continue;
      }
      request.route = Route::kCache;
      request.hudf.result = std::move(results[i]);
      request.hudf.stats = std::move(plan.queries[i].stats);
      request.session->cache_served_.fetch_add(1, std::memory_order_relaxed);
    }
    RouteCacheCounter().Add(static_cast<int64_t>(wave->cached.size()));
  }

  // CPU-routed queries overlap with the device wave on the pool.
  std::vector<std::future<void>> futures;
  futures.reserve(wave->cpu.size());
  for (auto& request : wave->cpu) {
    Request* raw = request.get();
    futures.push_back(pool_.Submit([this, raw] { RunCpuRequest(raw); }));
  }

  if (!wave->fpga.empty()) {
    // Plan the wave's batch slots. Default: one slot per request, exactly
    // the historical layout. With set compilation on, requests over the
    // same input column group together, and a group spanning >= 2
    // distinct programs compiles to ONE set scan (union NFA with tagged
    // accepts) whose streams demux per query after the wave. A union that
    // fails to compile (capacity, ultimately) degrades the group back to
    // classic one-slot-per-request scans — the multi-pass fallback.
    struct Slot {
      std::vector<Request*> members;
      std::shared_ptr<const CachedSetProgram> set;  // null: classic slot
    };
    std::vector<Slot> slots;
    if (options_.set_compilation) {
      std::vector<std::vector<Request*>> groups;
      for (auto& request : wave->fpga) {
        Request* raw = request.get();
        if (raw->cache.block != nullptr || raw->continuation != nullptr) {
          // Partial-extent requests scan only their private appended
          // tail, and a split resumes its own candidates; a set slot
          // shares ONE full scan, so they get their own classic slot
          // instead of joining (or seeding) a group.
          slots.push_back(Slot{{raw}, nullptr});
          continue;
        }
        bool placed = false;
        for (auto& group : groups) {
          // A set slot shares ONE scan, so members must agree on the
          // admission snapshot, not just the column pointer.
          if (group.front()->input == raw->input &&
              group.front()->admit_rows == raw->admit_rows &&
              group.front()->column.version == raw->column.version) {
            group.push_back(raw);
            placed = true;
            break;
          }
        }
        if (!placed) groups.push_back({raw});
      }
      for (auto& group : groups) {
        std::vector<std::shared_ptr<const CachedProgram>> distinct;
        for (Request* raw : group) {
          bool seen = false;
          for (const auto& program : distinct) {
            if (program->fingerprint == raw->program->fingerprint) {
              seen = true;
              break;
            }
          }
          if (!seen) distinct.push_back(raw->program);
        }
        if (distinct.size() < 2) {
          // One pattern (possibly several queries of it): classic slots.
          for (Request* raw : group) slots.push_back(Slot{{raw}, nullptr});
          continue;
        }
        auto set = cache_.GetOrCompileSet(distinct);
        if (set.ok()) {
          slots.push_back(Slot{std::move(group), std::move(*set)});
        } else {
          SetFallbackCounter().Add();
          for (Request* raw : group) slots.push_back(Slot{{raw}, nullptr});
        }
      }
    } else {
      slots.reserve(wave->fpga.size());
      for (auto& request : wave->fpga) {
        slots.push_back(Slot{{request.get()}, nullptr});
      }
    }

    const int batch_width = static_cast<int>(slots.size());
    // Split the pool's engines across the wave's slots: a full-width wave
    // gives each slot one engine; a singleton keeps the paper's
    // all-engines partitioning. With one device and no set slots this
    // equals the historical num_engines / batch_width.
    const int partitions = std::max(
        1, hal_->pool()->total_engines() / batch_width);
    // The wave is one scan plan over the pool: a query per slot, sharded
    // across the devices, stealing work from stalled members. The
    // executor offers every completed scan back to the result cache; set
    // members under their own member fingerprint.
    ScanPlan plan;
    plan.hal = hal_;
    plan.pooled = true;
    plan.cache = results_.get();
    std::vector<std::unique_ptr<Bat>> results(slots.size());
    Status status = Status::OK();
    for (size_t i = 0; i < slots.size() && status.ok(); ++i) {
      const Slot& slot = slots[i];
      const Request& lead = *slot.members.front();
      // Admission snapshot (min() is defensive — counts never shrink).
      const int64_t rows =
          std::min<int64_t>(lead.admit_rows, lead.input->count());
      ScanQuery& query = plan.queries.emplace_back();
      query.timing_only = lead.timing_only;
      query.snapshot = lead.column;
      if (slot.set != nullptr) {
        query.config = &slot.set->config;
        query.streams = static_cast<int>(slot.set->member_fingerprints.size());
        query.stream_fingerprints = &slot.set->member_fingerprints;
        query.span_name = "sched_fpga_set";
        query.route = "fpga-set";
      } else {
        query.config = &lead.program->config;
        query.continuation = lead.continuation.get();
        query.span_name = "sched_fpga";
        query.route = "fpga";
      }
      status = query.SetView(*lead.input);
      if (!status.ok()) break;
      auto result = ZeroedInt16Bat(rows * query.streams, hal_->bat_allocator());
      if (!result.ok()) {
        status = result.status();
        break;
      }
      results[i] = std::move(*result);
      query.result = results[i].get();
      // A partial-extent request's prefix block answers its first rows;
      // the device scans only the appended tail.
      query.AddSlices(lead.cache, 0, rows, SliceSource::kDevice, partitions);
    }
    if (status.ok()) status = ExecuteScanPlan(&plan);
    int set_slots = 0;
    int64_t set_queries = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (!status.ok()) {
        for (Request* raw : slot.members) raw->status = status;
        continue;
      }
      ScanQuery& query = plan.queries[i];
      if (slot.set == nullptr) {
        Request& request = *slot.members.front();
        request.hudf.result = std::move(results[i]);
        request.hudf.stats = std::move(query.stats);
        request.batch_width = batch_width;
        continue;
      }
      ++set_slots;
      SetWidthHistogram().Observe(static_cast<double>(query.streams));
      // Demux: each member takes its pattern's stream. Duplicate-pattern
      // members share a stream; all but the last copy the column.
      std::vector<int> uses(static_cast<size_t>(query.streams), 0);
      for (Request* raw : slot.members) {
        const int stream = slot.set->StreamOf(raw->program->fingerprint);
        DOPPIO_CHECK(stream >= 0);
        ++uses[static_cast<size_t>(stream)];
      }
      for (Request* raw : slot.members) {
        const int stream = slot.set->StreamOf(raw->program->fingerprint);
        HudfResult& source = query.set_outputs[static_cast<size_t>(stream)];
        if (--uses[static_cast<size_t>(stream)] == 0) {
          raw->hudf = std::move(source);
        } else {
          auto copy = CopyColumn(source);
          if (!copy.ok()) {
            raw->status = copy.status();
            continue;
          }
          raw->hudf = std::move(*copy);
        }
        raw->batch_width = batch_width;
        raw->set_width = query.streams;
        ++set_queries;
      }
    }
    if (set_slots > 0) {
      SetWavesCounter().Add(set_slots);
      SetQueriesCounter().Add(set_queries);
    }
    RouteFpgaCounter().Add(static_cast<int64_t>(wave->fpga.size()));
    BatchWidthHistogram().Observe(static_cast<double>(batch_width));
  }

  for (auto& future : futures) future.wait();
  int64_t cache_served = 0;
  for (auto& request : wave->cpu) {
    if (request->route != Route::kCache) continue;
    ++cache_served;
    request->session->cache_served_.fetch_add(1, std::memory_order_relaxed);
  }
  RouteCacheCounter().Add(cache_served);
  RouteCpuCounter().Add(static_cast<int64_t>(wave->cpu.size()) -
                        cache_served);
}

void QueryScheduler::RunCpuRequest(Request* request) {
  const Bat& input = *request->input;
  // Admission snapshot: scan exactly the rows visible at Submit, however
  // much the column has grown since (min() is defensive — counts never
  // shrink).
  const int64_t rows =
      std::min<int64_t>(request->admit_rows, input.count());
  HudfResult out;
  Status status;

  if (request->program != nullptr) {
    // Same compiled program the engines execute, through the registry-
    // chosen host backend — results bit-identical to the hardware
    // functional pass by construction, so the executor offers them back
    // to the result cache like a device scan. A host-only plan: its
    // result stays off the shared arena, and it never touches the device
    // pool. A split's exact hit (Route::kCache) scans nothing: its block
    // is the prefix's values, which the continuation resumes.
    ScanPlan plan;
    plan.device = &hal_->device_config();
    plan.cache = results_.get();
    ScanQuery& query = plan.queries.emplace_back();
    query.config = &request->program->config;
    query.program = request->program->program;
    query.continuation = request->continuation.get();
    query.snapshot = request->column;
    query.route =
        request->route == Route::kCache ? "fpga-cache" : "sched_cpu";
    status = query.SetView(input);
    auto result = ZeroedInt16Bat(rows);
    if (status.ok()) status = result.status();
    if (status.ok()) {
      out.result = std::move(*result);
      query.result = out.result.get();
      // A partial-extent request's prefix block answers its first rows;
      // the host backend scans only the appended tail.
      query.AddSlices(request->cache, 0, rows, SliceSource::kHost);
      status = ExecuteScanPlan(&plan);
      out.stats = std::move(query.stats);
    }
  } else {
    // The pattern has no device part: full software scan on the lazy DFA
    // (the planner's software strategy, shared with the hybrid executor
    // via db/hudf.h).
    Stopwatch cpu_watch;
    auto scan = RunDfaScanInSoftware(input, request->pattern,
                                     request->options, rows);
    if (scan.ok()) {
      out = std::move(*scan);
      out.stats.udf_software_seconds = cpu_watch.ElapsedSeconds();
    } else {
      status = scan.status();
    }
  }

  if (status.ok()) {
    request->hudf = std::move(out);
  } else {
    request->status = status;
  }
}

void QueryScheduler::FinalizeWaveLocked(Wave* wave) {
  auto finalize = [this](std::shared_ptr<Request>& request) {
    request->done = true;
    request->completion_seq = ++completion_counter_;
    request->session->completed_.fetch_add(1, std::memory_order_relaxed);
    request->session->latency_->Observe(
        request->latency_watch.ElapsedSeconds());
  };
  for (auto& request : wave->fpga) finalize(request);
  for (auto& request : wave->cpu) finalize(request);
  for (auto& request : wave->cached) finalize(request);
}

}  // namespace sched
}  // namespace doppio
