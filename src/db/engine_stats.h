// Per-query timing breakdown (paper Fig. 10): time spent in the database
// proper, in the UDF's software part, generating the configuration vector,
// in the HAL, and in the hardware execution itself.
//
// Software phases are host wall-clock; the hardware phase is virtual
// (simulated) time. Scans through the executor (db/hudf.h,
// ExecuteScanPlan) split their host time by one rule: building the plan
// is hal_seconds, the drain is sim_host_seconds, everything after it is
// udf_software_seconds.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace doppio {

struct QueryStats {
  // Phase breakdown, seconds.
  double database_seconds = 0;    // everything but the UDF
  /// UDF overhead minus the parts below: for an executor scan, what
  /// follows the drain — planned host runs, software fallback,
  /// cached-block copies and set demux.
  double udf_software_seconds = 0;
  double config_gen_seconds = 0;  // pattern -> configuration vector
  /// Job creation/bookkeeping: for an executor scan, building the plan
  /// (result BAT, slices, job parameters) up to the drain.
  double hal_seconds = 0;
  double hw_seconds = 0;          // virtual time on the FPGA (queue+exec)

  /// Host time spent *running the simulator*: the executor's drain
  /// (submitting device jobs and busy-waiting on virtual events), and
  /// for a streamed scan the rest of its window loop too (page-in copies,
  /// per-segment cache puts). A measurement artifact: excluded from every
  /// phase and from TotalSeconds(), tracked so callers can reconcile
  /// wall clocks.
  double sim_host_seconds = 0;

  // Volume.
  int64_t rows_scanned = 0;
  int64_t rows_matched = 0;

  // Fault-tolerance accounting (all zero on a fault-free run; only then
  // are they printed, so baseline figure output is unchanged).
  int32_t job_retries = 0;      // job resubmissions across all slices
  int32_t faults_recovered = 0; // jobs that saw a fault but still completed
  int64_t fallback_rows = 0;    // rows re-matched in software after the
                                // hardware path gave up

  // Out-of-core streaming accounting (store/stream_executor; zero on the
  // resident path, so baseline figure output is unchanged).
  int32_t windows_streamed = 0;   // segment windows scanned by this query
  double page_in_seconds = 0;     // modeled QPI time paying segment faults

  /// Which execution strategy served the string predicate.
  std::string strategy;

  /// Which compiled PU kernel the hardware path's functional pass used
  /// ("literal" / "lazy-dfa" / "nfa-loop"), and its host-side throughput.
  /// Simulator observability — orthogonal to the virtual-time phases.
  std::string pu_kernel;
  int64_t functional_bytes = 0;
  double functional_seconds = 0;

  /// Per-query span handle into obs::Tracer (kInvalidTraceId / 0 when
  /// tracing is off). Lets callers pull the trace's virtual extent or
  /// job count for the query that produced these stats.
  uint64_t trace_id = 0;

  /// Functional-pass host throughput in MB/s. 0 when unmeasured, and 0
  /// (never inf/NaN) for zero-byte or zero-duration runs — this value is
  /// serialized into JSON, where non-finite numbers are invalid.
  double FunctionalMbps() const {
    if (functional_seconds <= 0) return 0;
    const double mbps = static_cast<double>(functional_bytes) / 1e6 /
                        functional_seconds;
    return std::isfinite(mbps) ? mbps : 0;
  }

  /// Returns every field to its just-constructed state. Call at query
  /// start: QueryStats objects are reused across queries on a session,
  /// and without an explicit reset the fault-tolerance counters
  /// (job_retries, faults_recovered, fallback_rows) and kernel fields
  /// carry over from the previous query.
  void Reset() { *this = QueryStats(); }

  double TotalSeconds() const {
    return database_seconds + udf_software_seconds + config_gen_seconds +
           hal_seconds + hw_seconds;
  }

  std::string ToString() const;

  /// Accumulates phase times and volumes (for multi-operator queries).
  void Accumulate(const QueryStats& other);
};

}  // namespace doppio
