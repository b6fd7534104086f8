// Shared machinery of the repository benchmark (see README.md): command
// line, metric catalog, the benchmark's own span recorder, the phase
// ledger that turns QueryStats into service-clock numbers, and the timed
// loop every workload runs under.
//
// Clocks. Every metric names one of three clocks:
//   host    — steady-clock wall time in this process, simulator included;
//   service — host software phases plus modeled device time, computed
//             from QueryStats as database + udf_software + config_gen +
//             hal + hw (never sim_host_seconds, never TotalSeconds());
//   virtual — device clocks only (FpgaDevice::now(), hw_seconds).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/engine_stats.h"

namespace perfbench {

enum class Clock { kHost, kService, kVirtual, kNone };
const char* ClockName(Clock clock);

/// Layers a span or a metric is attributed to.
enum class Layer { kBench, kSql, kDb, kSched, kStore };
const char* LayerName(Layer layer);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (empty = not written).
  std::string spans_out;
  /// Test hook: corrupt one expected value of the correctness oracle so
  /// the run must fail.
  bool inject_wrong_expected = false;
};

/// Parses the command line; returns false (after printing usage) on error.
bool ParseArgs(int argc, char** argv, Args* args);

double NowSeconds();

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Lower-case strategy tag with every non-alphanumeric run folded to '_'
/// ("auto->fpga" -> "auto_fpga"), the form used in metric names.
std::string MetricToken(const std::string& text);

// ---------------------------------------------------------------------------
// Metric catalog

struct MetricSpec {
  const char* name;
  const char* unit;
  Clock clock;
};

/// The end-to-end metrics every workload prints (README catalog).
const std::vector<MetricSpec>& EndToEndCatalog();
/// End-to-end metrics scored by BENCHMARK.json (a subset of the above).
const std::vector<std::string>& ScoredEndToEnd();
/// Every per-layer metric a traced run emits, in output order.
const std::vector<MetricSpec>& PerLayerCatalog();

/// name -> value; the catalog supplies unit and clock at print time.
using MetricValues = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Spans: the benchmark's own in-memory trace (nothing inside src/ is
// instrumented). One root span per operation, one child span around each
// public call the benchmark makes into a layer.

class SpanLog {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void BeginOp(int64_t op);
  void EndOp();

  /// Runs `fn` inside a child span of the current operation.
  template <typename Fn>
  auto Call(Layer layer, const char* name, Fn&& fn) -> decltype(fn()) {
    if (!enabled_) return fn();
    const size_t index = Open(layer, name);
    auto result = fn();
    Close(index);
    return result;
  }

  /// Self time per layer, seconds: a span's duration minus the part of
  /// it covered by its child spans. The root spans' self time is the
  /// benchmark's own work (verification, bookkeeping).
  std::map<std::string, double> SelfSecondsByLayer() const;
  size_t size() const { return spans_.size(); }

  /// Writes every span as one JSON array.
  doppio::Status WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Layer layer;
    double start;
    double end;
    int64_t parent;  // index of the parent span, -1 for a root
    int64_t op;
  };
  size_t Open(Layer layer, const char* name);
  void Close(size_t index) { spans_[index].end = NowSeconds(); }

  bool enabled_ = false;
  std::vector<Span> spans_;
  int64_t root_ = -1;
  int64_t op_ = -1;
};

// ---------------------------------------------------------------------------
// Phase ledger: sums QueryStats over a run's queries.

/// Service-clock seconds of one query (see the header comment).
double ServiceSeconds(const doppio::QueryStats& stats);

struct PhaseLedger {
  int64_t queries = 0;
  double database_s = 0;
  double udf_software_s = 0;
  double config_gen_s = 0;
  double hal_s = 0;
  double hw_s = 0;
  double sim_host_s = 0;
  double page_in_s = 0;
  int64_t windows = 0;
  int64_t functional_bytes = 0;
  double functional_s = 0;
  /// Sum of hw_seconds in integer picoseconds (exact across runs).
  int64_t hw_picos = 0;
  std::map<std::string, int64_t> strategies;

  void Add(const doppio::QueryStats& stats);
  /// Fills db.*, regex.*, hal.*, hw.device_ms, hw.sim_host_ms,
  /// hw.functional_mbps and db.strategy.* into `out`.
  void Emit(MetricValues* out) const;
};

// ---------------------------------------------------------------------------
// Workloads

/// What one client step completed. A step is one root span.
struct StepOutcome {
  /// Host latency (call to return) of each operation the step completed.
  std::vector<double> host_s;
  /// Service-clock latency of each query the step completed.
  std::vector<double> service_s;
  int64_t attempted = 0;
  int64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Data generation, load, sealing, oracle, calibration and warm-up:
  /// everything before the first timed operation.
  virtual doppio::Status Setup() = 0;
  /// Marks the start of the timed region (device-clock and counter
  /// baselines).
  virtual void BeginTimed() = 0;
  /// One closed-loop step: issues the next operation(s) of the seeded
  /// sequence, checks every result against the oracle. Failed operations
  /// are counted in `out`, never thrown or returned.
  virtual void Step(int64_t step, SpanLog* spans, StepOutcome* out) = 0;
  /// Rows whose result diverged from the oracle so far.
  virtual int64_t divergent_rows() const = 0;
  /// Every count and virtual-clock total that decides what gets measured
  /// (routes, strategies, waves, windows, page-ins, cache hits, device
  /// picoseconds), cumulative since BeginTimed.
  virtual std::map<std::string, int64_t> Fingerprint() const = 0;
  /// Virtual seconds all device clocks advanced since BeginTimed.
  virtual double DeviceSecondsSinceBegin() const = 0;
  /// Queries completed since BeginTimed.
  virtual int64_t queries() const = 0;
  /// Appended rows and host seconds spent in append calls.
  virtual int64_t appended_rows() const { return 0; }
  virtual double append_seconds() const { return 0; }
  /// Per-layer metrics measured since BeginTimed (traced runs).
  virtual void EmitLayers(MetricValues* out) const = 0;
  /// Threads the workload configured: client, functional pass, scheduler
  /// CPU pool.
  virtual std::string ThreadSummary() const = 0;
};

using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(const Args& args)>;

std::unique_ptr<Workload> MakeHudfSql(const Args& args);
std::unique_ptr<Workload> MakeTenants(const Args& args);
std::unique_ptr<Workload> MakeStreamIngest(const Args& args);

/// Steps after which the determinism fingerprint is taken: the same seed
/// runs the same first kFingerprintSteps steps whatever the host speed.
inline constexpr int64_t kFingerprintSteps = 150;

/// Runs the whole benchmark for `args` and prints the report; returns the
/// process exit code.
int RunBenchmark(const Args& args);

}  // namespace perfbench
