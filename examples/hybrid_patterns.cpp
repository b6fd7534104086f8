// Hybrid execution (paper §6.4, §7.8): when a pattern needs more character
// matchers or states than the deployed PU provides, it is split at a '.*'
// and the FPGA pre-filters for the CPU, which resumes each candidate at the
// device's match index with the suffix after the cut. This example runs
// the same query against three deployments to show all three strategies.
//
//   ./examples/hybrid_patterns [num_records]
#include <cstdio>
#include <cstdlib>

#include "db/hybrid_executor.h"
#include "hal/hal.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

using namespace doppio;

int main(int argc, char** argv) {
  int64_t num_records = argc > 1 ? std::atoll(argv[1]) : 100'000;

  AddressDataOptions data;
  data.num_records = num_records;
  data.selectivity = 0;
  data.qh_selectivity = 0.2;
  auto table = GenerateAddressTable(data, "addr");
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }

  const std::string pattern = QueryPattern(EvalQuery::kQH);
  std::printf("pattern: %s\n", pattern.c_str());

  struct Deployment {
    const char* label;
    int max_chars;
    int max_states;
  } deployments[] = {
      {"large PU  (64 chars, 16 states)", 64, 16},
      {"default PU (24 chars,  8 states)", 24, 8},
      {"tiny PU    ( 4 chars,  2 states)", 4, 2},
  };

  for (const Deployment& d : deployments) {
    Hal::Options options;
    options.shared_memory_bytes = int64_t{512} << 20;
    options.device.max_chars = d.max_chars;
    options.device.max_states = d.max_states;
    Hal hal(options);

    // Copy strings into this HAL's shared memory.
    Bat input(ValueType::kString, hal.bat_allocator());
    const Bat* src = (*table)->GetColumn("address_string");
    for (int64_t i = 0; i < src->count(); ++i) {
      if (!input.AppendString(src->GetString(i)).ok()) return 1;
    }

    auto plan = PlanHybrid(pattern, options.device);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed\n");
      return 1;
    }
    auto result = ExecuteHybrid(&hal, input, *plan);
    if (!result.ok()) {
      std::fprintf(stderr, "execution failed\n");
      return 1;
    }
    const char* strategy =
        result->strategy == HybridStrategy::kFpgaOnly       ? "fpga-only"
        : result->strategy == HybridStrategy::kHybrid       ? "hybrid"
                                                            : "software";
    std::printf("\n%s -> %s\n", d.label, strategy);
    if (result->strategy == HybridStrategy::kHybrid) {
      std::printf("  offloaded prefix: %s\n", plan->fpga_pattern.c_str());
      std::printf("  CPU resumes with: %s (%s)\n", plan->cpu_pattern.c_str(),
                  plan->cpu_suffix != nullptr ? "host kernels"
                                              : "full-pattern lazy DFA");
      std::printf("  CPU post-processed %lld of %lld tuples (%.1f%%)\n",
                  static_cast<long long>(result->cpu_postprocessed),
                  static_cast<long long>(input.count()),
                  100.0 * result->cpu_postprocessed / input.count());
    }
    std::printf("  matches: %lld, hw %.2f ms (virtual), sw %.2f ms\n",
                static_cast<long long>(result->stats.rows_matched),
                result->stats.hw_seconds * 1e3,
                result->stats.udf_software_seconds * 1e3);
  }
  return 0;
}
