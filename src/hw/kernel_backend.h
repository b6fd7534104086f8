// Kernel-backend registry: CPU-scalar, CPU-SIMD and simulated-FPGA as
// peer executors of one compiled PU program.
//
// Before this layer existed, "which kernel runs this program on the
// host?" was answered twice — once inside hw/pu_kernel (literal vs
// lazy-dfa vs nfa-loop) and once ad hoc at every host-execution call
// site (HUDF fallback slices, the scheduler's host-pool route, the
// hybrid executor's software scan). The registry makes the choice
// explicit and single-sourced; the simulated device's functional pass
// (hw/regex_engine) computes its results through it as well:
//
//   * cpu-scalar — ProcessingUnit's compiled kernels (literal substring,
//     lazy DFA, NFA loop). Always available; the reference host backend.
//   * cpu-simd   — the bit-parallel Shift-And engine (regex/bitparallel)
//     for chain-shaped word-sized programs, or the lazy DFA behind its
//     two exact SIMD skips (reset-state skip, accept-token row filter)
//     when CompiledPuProgram::dfa_skips() says the program is eligible
//     (at most 32 start bytes). Falls back to scalar execution internally
//     for programs it cannot accelerate, so it is safe to force anywhere.
//     Results are bit-identical to cpu-scalar by construction on every
//     host (the SIMD primitives carry scalar fallbacks).
//   * fpga-sim   — the cycle-level simulated device (hw/fpga_device). It
//     cannot run a host slice; it participates in the registry for
//     identity, routing and forcing.
//
// `DOPPIO_FORCE_BACKEND=scalar|simd|fpga` pins the choice process-wide:
// scalar/simd constrain every host execution, the device's functional
// pass included; fpga disables cost-model CPU routing so eligible work
// stays on the device.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "hw/device_config.h"
#include "hw/job.h"
#include "hw/pu_kernel.h"

namespace doppio {

enum class BackendId { kCpuScalar, kCpuSimd, kFpgaSim };

/// Stable short tag ("cpu-scalar", "cpu-simd", "fpga-sim").
const char* BackendName(BackendId id);

/// The DOPPIO_FORCE_BACKEND override (scalar|simd|fpga, or the full
/// backend names); nullopt when unset or unrecognized. Read per call so
/// tests can flip it.
std::optional<BackendId> ForcedBackend();

/// Per-thread execution state of one backend over one program: matchers,
/// DFA caches, scratch. Create one per worker, reuse across strings.
class HostExecution {
 public:
  virtual ~HostExecution() = default;

  /// PU ProcessString semantics: 1-based position of the first match's
  /// last character saturated at 65535, or 0 for no match.
  virtual uint16_t Match(std::string_view input) = 0;

  /// Set-program semantics: fills match[0 .. program num_patterns) with
  /// each tagged stream's first-accept index, each stream bit-identical
  /// to Match() on that member compiled alone (independent 65535
  /// saturation per stream). The default covers single-pattern programs.
  virtual void MatchSet(std::string_view input, uint16_t* match) {
    match[0] = Match(input);
  }

  /// Kernel actually executing ("literal", "lazy-dfa", "nfa-loop",
  /// "bit-parallel", "bit-parallel-set", "dfa+prefilter") — stats/bench
  /// tag.
  virtual const char* kernel_name() const = 0;
};

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  virtual BackendId id() const = 0;
  const char* name() const { return BackendName(id()); }

  /// Whether the backend can execute host slices at all (fpga-sim: no).
  virtual bool CanExecuteOnHost() const = 0;

  /// Whether the backend has an *accelerated* path for this program.
  /// NewExecution still works when false (internal scalar fallback);
  /// routing uses this to pick the fastest backend.
  virtual bool Supports(const CompiledPuProgram& program) const = 0;

  /// New per-thread execution over `program`; null when
  /// !CanExecuteOnHost().
  virtual std::unique_ptr<HostExecution> NewExecution(
      std::shared_ptr<const CompiledPuProgram> program) const = 0;
};

class BackendRegistry {
 public:
  static const BackendRegistry& Global();

  const KernelBackend& Get(BackendId id) const;

  /// The host backend that will run this program: the forced host
  /// backend when DOPPIO_FORCE_BACKEND names one, else cpu-simd when it
  /// accelerates the program, else cpu-scalar.
  const KernelBackend& ChooseHost(const CompiledPuProgram& program) const;

 private:
  BackendRegistry();
  std::vector<std::unique_ptr<KernelBackend>> owned_;
  std::vector<const KernelBackend*> list_;
};

/// Observability of one host-slice run (which backend/kernel executed).
struct HostSliceInfo {
  BackendId backend = BackendId::kCpuScalar;
  const char* kernel = "";
};

/// Executes one job slice on the host through the registry-chosen
/// backend, writing raw 16-bit match indexes into the slice's result
/// range — the same kernels the device's functional pass runs. `program`
/// reuses an already-compiled program; when null the slice's config bytes
/// are compiled on the spot. Returns the slice's match count.
Result<int64_t> RunHostSlice(const DeviceConfig& device,
                             const JobParams& params,
                             std::shared_ptr<const CompiledPuProgram> program =
                                 nullptr,
                             HostSliceInfo* info = nullptr);

}  // namespace doppio
