// Property-based tests: randomized inputs cross-checking independent
// implementations against each other (the strongest evidence we have that
// the simulated hardware implements the same language as the software
// matchers).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>

#include "common/random.h"
#include "db/hybrid_executor.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/processing_unit.h"
#include "mem/arena.h"
#include "mem/slab_allocator.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/nfa_matcher.h"
#include "regex/token_extractor.h"
#include "regex/token_nfa.h"

namespace doppio {
namespace {

// Random patterns from the hardware-mappable grammar: alternations of
// literal/class tokens glued by adjacency or '.*', with optional '+'.
std::string RandomHwPattern(Rng* rng) {
  auto token = [&] {
    switch (rng->NextBounded(4)) {
      case 0:
        return rng->FromAlphabet("abc", 1 + rng->NextBounded(3));
      case 1:
        return std::string("[a-c]");
      case 2:
        return std::string("[0-9]");
      default:
        return rng->FromAlphabet("xyz", 1 + rng->NextBounded(2));
    }
  };
  std::string pattern;
  int segments = 1 + static_cast<int>(rng->NextBounded(3));
  for (int s = 0; s < segments; ++s) {
    if (s > 0) pattern += rng->Bernoulli(0.6) ? ".*" : "";
    if (rng->Bernoulli(0.3)) {
      pattern += "(" + token() + "|" + token() + ")";
    } else {
      std::string t = token();
      pattern += t;
      if (t.size() == 5 && rng->Bernoulli(0.4)) pattern += "+";  // class+
    }
  }
  return pattern;
}

TEST(PropertyTest, SoftwareMatchersAgreeOnRandomPatterns) {
  Rng rng(2024);
  const std::string alphabet = "abcxyz019 ";
  int checked = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto dfa = DfaMatcher::Compile(pattern);
    auto nfa = NfaMatcher::Compile(pattern);
    auto bt = BacktrackMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok()) << pattern;
    ASSERT_TRUE(nfa.ok()) << pattern;
    ASSERT_TRUE(bt.ok()) << pattern;
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(32));
      MatchResult md = (*dfa)->Find(input);
      MatchResult mn = (*nfa)->Find(input);
      MatchResult mb = (*bt)->Find(input);
      ASSERT_EQ(md, mn) << pattern << " on '" << input << "'";
      ASSERT_EQ(md.matched, mb.matched)
          << pattern << " on '" << input << "'";
      ++checked;
    }
  }
  EXPECT_GT(checked, 3000);
}

TEST(PropertyTest, HardwareAgreesWithSoftwareOnRandomPatterns) {
  Rng rng(77);
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  ProcessingUnit pu(device);
  const std::string alphabet = "abcxyz019 ";
  int mapped = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;  // e.g. trivially-true pattern
    ++mapped;
    ASSERT_TRUE(pu.Configure(config->vector).ok()) << pattern;
    auto dfa = DfaMatcher::Compile(pattern);
    ASSERT_TRUE(dfa.ok());
    TokenNfaMatcher reference(config->nfa);
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(32));
      MatchResult sw = (*dfa)->Find(input);
      MatchResult ref = reference.Find(input);
      uint16_t hw = pu.ProcessString(input);
      ASSERT_EQ(ref, sw) << pattern << " on '" << input << "'";
      ASSERT_EQ(hw != 0, sw.matched) << pattern << " on '" << input << "'";
      if (sw.matched) {
        ASSERT_EQ(static_cast<int32_t>(hw), sw.end)
            << pattern << " on '" << input << "'";
      }
    }
  }
  EXPECT_GT(mapped, 30);
}

TEST(PropertyTest, SimdBackendAgreesWithScalarOnRandomPatterns) {
  // The simd_served assertion below reads the registry's *unforced*
  // choice; CI runs this suite with DOPPIO_FORCE_BACKEND set.
  unsetenv("DOPPIO_FORCE_BACKEND");
  Rng rng(4096);
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  const BackendRegistry& registry = BackendRegistry::Global();
  const std::string alphabet = "abcxyz019 ";
  int mapped = 0;
  int simd_served = 0;
  for (int p = 0; p < 60; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto config = CompileRegexConfig(pattern, device);
    if (!config.ok()) continue;
    auto program = CompiledPuProgram::Compile(config->vector, device);
    ASSERT_TRUE(program.ok()) << pattern;
    ++mapped;
    if (registry.ChooseHost(**program).id() == BackendId::kCpuSimd) {
      ++simd_served;
    }
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(*program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(*program);
    for (int i = 0; i < 60; ++i) {
      std::string input = rng.FromAlphabet(alphabet, rng.NextBounded(48));
      const uint16_t expect = scalar->Match(input);
      ASSERT_EQ(simd->Match(input), expect)
          << pattern << " on '" << input << "' kernel "
          << simd->kernel_name();
    }
  }
  EXPECT_GT(mapped, 30);
  // The random grammar is dominated by chain/small-escape shapes; the
  // sweep must actually exercise the accelerated paths, not just the
  // internal fallback.
  EXPECT_GT(simd_served, 10);
}

// Split plans (db/hybrid_executor.h): P1 '.*' P2, planned under a
// geometry sized to P1, so the device runs P1 and the CPU resumes with P2
// at the device's match index. Every value must equal the DFA oracle's
// min(end, 65535), on short rows and on long rows planted with matches
// around the 32767 and 65535 boundaries.
TEST(PropertyTest, SplitPlansResumeExactlyAtTheDevicesMatchIndex) {
  Rng rng(1313);
  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;
  options.functional_threads = 2;
  options.device.max_chars = 64;
  options.device.max_states = 32;
  Hal hal(options);
  const std::string alphabet = "abcxyzABX019 ";
  int split = 0;
  int past_cap = 0;          // values above 32767
  int prefix_saturated = 0;  // rows whose P1 match ends at or past 65535
  for (int p = 0; p < 80; ++p) {
    const std::string prefix = RandomHwPattern(&rng);
    std::string suffix = RandomHwPattern(&rng);
    if (rng.Bernoulli(0.3)) suffix += ".*" + RandomHwPattern(&rng);
    const std::string pattern = prefix + ".*" + suffix;
    CompileOptions copts;
    copts.case_insensitive = rng.Bernoulli(0.2);

    auto sized = CompileRegexConfig(prefix, options.device, copts);
    if (!sized.ok()) continue;
    DeviceConfig device = options.device;
    device.max_chars = sized->matchers_used;
    device.max_states = sized->states_used;
    auto plan = PlanHybrid(pattern, device, copts);
    ASSERT_TRUE(plan.ok()) << pattern;
    if (plan->strategy != HybridStrategy::kHybrid) continue;
    ++split;
    auto oracle = DfaMatcher::Compile(pattern, copts);
    auto prefix_oracle = DfaMatcher::Compile(prefix, copts);
    ASSERT_TRUE(oracle.ok() && prefix_oracle.ok()) << pattern;

    std::vector<std::string> rows;
    std::vector<std::string> witnesses;  // short rows P1 matches
    for (int i = 0; i < 40; ++i) {
      rows.push_back(rng.FromAlphabet(alphabet, rng.NextBounded(40)));
      if ((*prefix_oracle)->Find(rows.back()).matched) {
        witnesses.push_back(rows.back());
      }
    }
    // '-' is in no token: the long rows are separators with witnesses
    // planted anywhere, at the end, or around the 16-bit boundary.
    for (size_t length : {0, 32768, 65534, 65535, 65536, 70000}) {
      std::string row(length, '-');
      const int plants = 1 + static_cast<int>(rng.NextBounded(3));
      for (int k = 0; k < plants && !witnesses.empty(); ++k) {
        const std::string& piece = witnesses[rng.NextBounded(witnesses.size())];
        if (piece.size() > length) continue;
        const size_t room = length - piece.size();
        size_t at = 0;
        switch (rng.NextBounded(3)) {
          case 0: at = rng.NextBounded(room + 1); break;
          case 1: at = room - std::min<size_t>(room, rng.NextBounded(8)); break;
          default:
            at = std::min<size_t>(room, 65520 + rng.NextBounded(24));
            break;
        }
        std::copy(piece.begin(), piece.end(),
                  row.begin() + static_cast<std::ptrdiff_t>(at));
      }
      rows.push_back(std::move(row));
    }

    Bat input(ValueType::kString, hal.bat_allocator());
    for (const std::string& row : rows) {
      ASSERT_TRUE(input.AppendString(row).ok());
    }
    auto result = ExecuteHybrid(&hal, input, *plan);
    ASSERT_TRUE(result.ok()) << pattern << ": " << result.status().ToString();
    for (size_t i = 0; i < rows.size(); ++i) {
      const MatchResult m = (*oracle)->Find(rows[i]);
      const uint16_t expect =
          m.matched ? static_cast<uint16_t>(std::min<int32_t>(m.end, 65535))
                    : uint16_t{0};
      const uint16_t got = static_cast<uint16_t>(
          result->result->GetInt16(static_cast<int64_t>(i)));
      ASSERT_EQ(got, expect) << pattern
                             << (copts.case_insensitive ? " (folded)" : "")
                             << ", row " << i << " of " << rows[i].size()
                             << " bytes";
      past_cap += expect > 32767 ? 1 : 0;
      const MatchResult pm = (*prefix_oracle)->Find(rows[i]);
      prefix_saturated += pm.matched && pm.end >= 65535 ? 1 : 0;
    }
  }
  EXPECT_GT(split, 40);
  EXPECT_GT(past_cap, 20);
  EXPECT_GT(prefix_saturated, 5);
}

TEST(PropertyTest, ConfigVectorRoundTripsRandomPatterns) {
  Rng rng(5);
  for (int p = 0; p < 100; ++p) {
    std::string pattern = RandomHwPattern(&rng);
    auto nfa = ExtractTokenNfa(pattern);
    if (!nfa.ok()) continue;
    auto encoded = ConfigVector::Encode(*nfa);
    ASSERT_TRUE(encoded.ok()) << pattern;
    auto decoded = encoded->Decode();
    ASSERT_TRUE(decoded.ok()) << pattern;
    ASSERT_EQ(decoded->tokens.size(), nfa->tokens.size());
    ASSERT_EQ(decoded->states.size(), nfa->states.size());
    // Re-encode must be byte-identical (canonical form).
    auto re = ConfigVector::Encode(*decoded);
    ASSERT_TRUE(re.ok());
    EXPECT_EQ(re->bytes(), encoded->bytes()) << pattern;
  }
}

TEST(PropertyTest, SlabAllocatorRandomWorkload) {
  SharedArena arena(32 * kSharedPageBytes);
  SlabAllocator slab(&arena);
  Rng rng(11);
  std::map<void*, std::pair<int64_t, uint8_t>> live;  // ptr -> (size, tag)

  for (int step = 0; step < 2000; ++step) {
    if (live.size() < 40 && rng.Bernoulli(0.6)) {
      int64_t size = 1 + static_cast<int64_t>(
                             rng.NextBounded(3 * 1024 * 1024));
      auto p = slab.Allocate(size);
      if (!p.ok()) continue;  // arena full is acceptable
      uint8_t tag = static_cast<uint8_t>(rng.NextBounded(256));
      // Write the whole allocation; overlap corruption would surface as a
      // tag mismatch on free.
      std::memset(*p, tag, static_cast<size_t>(size));
      ASSERT_EQ(live.count(*p), 0u);
      live[*p] = {size, tag};
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBounded(live.size()));
      auto [size, tag] = it->second;
      const uint8_t* bytes = static_cast<const uint8_t*>(it->first);
      ASSERT_EQ(bytes[0], tag);
      ASSERT_EQ(bytes[size - 1], tag);
      ASSERT_EQ(bytes[size / 2], tag);
      ASSERT_TRUE(slab.Free(it->first).ok());
      live.erase(it);
    }
  }
  for (auto& [ptr, info] : live) {
    ASSERT_TRUE(slab.Free(ptr).ok());
  }
  SlabStats stats = slab.stats();
  EXPECT_EQ(stats.allocations, stats.frees);
}

TEST(PropertyTest, ArenaNeverHandsOutOverlappingRuns) {
  SharedArena arena(16 * kSharedPageBytes);
  Rng rng(3);
  std::vector<PageRun> live;
  for (int step = 0; step < 500; ++step) {
    if (rng.Bernoulli(0.55)) {
      auto run = arena.AllocatePages(
          1 + static_cast<int64_t>(rng.NextBounded(4 * kSharedPageBytes)));
      if (!run.ok()) continue;
      for (const PageRun& other : live) {
        bool disjoint =
            run->data + run->size_bytes() <= other.data ||
            other.data + other.size_bytes() <= run->data;
        ASSERT_TRUE(disjoint);
      }
      live.push_back(*run);
    } else if (!live.empty()) {
      size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(arena.FreePages(live[idx]).ok());
      live.erase(live.begin() + static_cast<int64_t>(idx));
    }
  }
}

TEST(PropertyTest, BoundedRepeatsEquivalentToExpansion) {
  // a{n,m} must behave exactly like its manual expansion.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    int n = static_cast<int>(rng.NextBounded(3));
    int m = n + static_cast<int>(rng.NextBounded(3));
    if (m == 0) continue;
    std::string bounded =
        "x(ab){" + std::to_string(n) + "," + std::to_string(m) + "}y";
    std::string expanded = "x";
    for (int i = 0; i < n; ++i) expanded += "ab";
    for (int i = n; i < m; ++i) expanded += "(ab)?";
    expanded += "y";
    auto a = DfaMatcher::Compile(bounded);
    auto b = DfaMatcher::Compile(expanded);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (int i = 0; i < 40; ++i) {
      std::string input = rng.FromAlphabet("abxy", rng.NextBounded(16));
      EXPECT_EQ((*a)->Find(input), (*b)->Find(input))
          << bounded << " vs " << expanded << " on " << input;
    }
  }
}

}  // namespace
}  // namespace doppio
