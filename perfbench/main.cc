// Repository benchmark program. See README.md for the workloads, the
// metric catalog and the clocks.
//
//   perfbench --workload hudf_sql|tenants|stream_ingest --seed N
//             --seconds S --trace 0|1 [--spans-out PATH]
//
// Prints one line per metric (name, value, unit, clock) and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits non-zero when any result diverges from the oracle.
#include <cstdlib>

#include "harness.h"

int main(int argc, char** argv) {
  // The workloads must not depend on the caller's environment: these
  // variables pin host backends or SIMD levels inside the library.
  for (const char* name : {"DOPPIO_FORCE_BACKEND", "DOPPIO_SIMD_LEVEL"}) {
    unsetenv(name);
  }
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  return perfbench::RunBenchmark(args);
}
