// Pattern-set compilation conformance (docs/PATTERN_SETS.md): the union
// NFA with tagged accepts, its extraction inverse, and the property that
// every execution layer — the reference token-NFA matcher, every PU
// kernel, every host backend under every DOPPIO_FORCE_BACKEND setting,
// and the simulated device — reports each member pattern's stream
// bit-identical to running that member compiled alone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/random.h"
#include "db/hudf.h"
#include "hal/hal.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/processing_unit.h"
#include "hw/pu_kernel.h"
#include "regex/token_nfa.h"

namespace doppio {
namespace {

/// Scoped environment override restoring the prior value on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_value_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      setenv(name_, saved_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

/// Geometry generous enough for multi-member unions while staying under
/// the 64-state config cap.
DeviceConfig WideDevice() {
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  return device;
}

/// Members covering every kernel shape: literals (literal kernel /
/// bit-parallel), a token chain, an alternation (no chain shape) and a
/// byte-class chain.
const char* const kMembers[] = {"Strasse", "Gasse",        "Berner",
                                "61234",   "abc.*x[0-9]z", "(abc|xyz)",
                                "[a-z][a-z][a-z]"};

/// Pattern subsets exercised by the property sweeps (indexes into
/// kMembers). Mixes chain-only sets (SIMD bit-parallel-set route) with
/// sets containing the alternation (prefiltered-DFA / scalar routes).
const std::vector<std::vector<int>> kSubsets = {
    {0, 1}, {0, 1, 2, 3}, {2, 4}, {4, 5}, {0, 5, 6}, {1, 3, 4, 5, 6}};

std::vector<std::string> Corpus() {
  std::vector<std::string> corpus = {
      "",
      "7 Berner Strasse|61234",
      "12 Berner Gasse|61234",
      "1 Haupt Strasse|99999",
      "no address at all",
      "abc then x7z",
      "xyzzy abc",
      "cat",
      "a1b2c3",
      "GasseStrasse",
  };
  Rng rng(7);
  const std::string alphabet = "abcxyz 0123456789BGSersnt";
  for (int i = 0; i < 48; ++i) {
    corpus.push_back(
        rng.FromAlphabet(alphabet, rng.NextBounded(56)));
  }
  return corpus;
}

std::vector<RegexConfig> CompileMembers(const std::vector<int>& subset) {
  std::vector<RegexConfig> members;
  for (int index : subset) {
    auto config = CompileRegexConfig(kMembers[index], WideDevice());
    EXPECT_TRUE(config.ok()) << kMembers[index];
    members.push_back(std::move(*config));
  }
  return members;
}

RegexConfig CompileSet(const std::vector<RegexConfig>& members) {
  std::vector<const TokenNfa*> nfas;
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  auto set = CompileRegexSetConfig(nfas, WideDevice());
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(*set);
}

// --- Union NFA: reference semantics ----------------------------------------

TEST(UnionNfaTest, FindSetStreamsMatchSoloFinds) {
  const auto corpus = Corpus();
  for (const auto& subset : kSubsets) {
    auto members = CompileMembers(subset);
    std::vector<const TokenNfa*> nfas;
    for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
    auto set = BuildUnionNfa(nfas);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    EXPECT_EQ(set->NumPatterns(), static_cast<int>(subset.size()));

    TokenNfaMatcher set_matcher(*set);
    std::vector<std::unique_ptr<TokenNfaMatcher>> solo;
    for (const RegexConfig& member : members) {
      solo.push_back(std::make_unique<TokenNfaMatcher>(member.nfa));
    }
    for (const std::string& s : corpus) {
      const std::vector<MatchResult> streams = set_matcher.FindSet(s);
      ASSERT_EQ(streams.size(), subset.size());
      for (size_t p = 0; p < subset.size(); ++p) {
        const MatchResult expect = solo[p]->Find(s);
        EXPECT_EQ(streams[p].matched, expect.matched)
            << kMembers[subset[p]] << " on '" << s << "'";
        if (expect.matched) {
          EXPECT_EQ(streams[p].end, expect.end)
              << kMembers[subset[p]] << " on '" << s << "'";
        }
      }
    }
  }
}

TEST(UnionNfaTest, ExtractMemberInvertsUnion) {
  const auto corpus = Corpus();
  auto members = CompileMembers({0, 4, 5, 6});
  std::vector<const TokenNfa*> nfas;
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  auto set = BuildUnionNfa(nfas);
  ASSERT_TRUE(set.ok());
  for (size_t p = 0; p < members.size(); ++p) {
    auto extracted = ExtractMemberNfa(*set, static_cast<int>(p));
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    EXPECT_EQ(extracted->NumPatterns(), 1);
    TokenNfaMatcher got(*extracted);
    TokenNfaMatcher expect(members[p].nfa);
    for (const std::string& s : corpus) {
      const MatchResult g = got.Find(s);
      const MatchResult e = expect.Find(s);
      EXPECT_EQ(g.matched, e.matched);
      if (e.matched) {
        EXPECT_EQ(g.end, e.end);
      }
    }
  }
}

TEST(UnionNfaTest, RejectsEmptySetsAndOverCapacityUnions) {
  EXPECT_TRUE(BuildUnionNfa({}).status().IsInvalidArgument());

  // Five literals total 28 character matchers — over the default
  // geometry's 24. The set compiler must surface CapacityExceeded (the
  // scheduler's signal to fall back to multi-pass waves).
  std::vector<RegexConfig> members;
  for (const char* pattern :
       {"Strasse", "Gasse", "Berner", "61234", "Haupt"}) {
    auto config = CompileRegexConfig(pattern, WideDevice());
    ASSERT_TRUE(config.ok());
    members.push_back(std::move(*config));
  }
  std::vector<const TokenNfa*> nfas;
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  DeviceConfig paper_geometry;
  auto set = CompileRegexSetConfig(nfas, paper_geometry);
  EXPECT_TRUE(set.status().IsCapacityExceeded()) << set.status().ToString();
}

TEST(UnionNfaTest, SingleMemberUnionEncodesIdenticallyToSolo) {
  // Tag 0 emits no tag byte, so a union of one is byte-identical to the
  // member — the wire-format guarantee behind the N=1 figure goldens.
  auto member = CompileRegexConfig("Strasse", WideDevice());
  ASSERT_TRUE(member.ok());
  auto set = CompileRegexSetConfig({&member->nfa}, WideDevice());
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->vector.bytes(), member->vector.bytes());
}

// --- Every PU kernel, per stream -------------------------------------------

TEST(PatternSetPropertyTest, PuKernelsMatchSoloRunsPerStream) {
  const auto corpus = Corpus();
  for (const auto& subset : kSubsets) {
    auto members = CompileMembers(subset);
    RegexConfig set = CompileSet(members);
    for (PuKernelOptions::Force force :
         {PuKernelOptions::Force::kAuto, PuKernelOptions::Force::kLazyDfa,
          PuKernelOptions::Force::kNfaLoop}) {
      PuKernelOptions options;
      options.force = force;
      auto set_program =
          CompiledPuProgram::Compile(set.vector, WideDevice(), options);
      ASSERT_TRUE(set_program.ok()) << set_program.status().ToString();
      EXPECT_EQ((*set_program)->num_patterns(),
                static_cast<int>(subset.size()));
      ProcessingUnit set_pu(WideDevice());
      set_pu.Configure(*set_program);

      std::vector<std::unique_ptr<ProcessingUnit>> solo;
      for (const RegexConfig& member : members) {
        auto program =
            CompiledPuProgram::Compile(member.vector, WideDevice(), options);
        ASSERT_TRUE(program.ok());
        solo.push_back(std::make_unique<ProcessingUnit>(WideDevice()));
        solo.back()->Configure(*program);
      }
      std::vector<uint16_t> match(subset.size());
      for (const std::string& s : corpus) {
        set_pu.ProcessStringSet(s, match.data());
        for (size_t p = 0; p < subset.size(); ++p) {
          EXPECT_EQ(match[p], solo[p]->ProcessString(s))
              << "force=" << static_cast<int>(force) << " member "
              << kMembers[subset[p]] << " on '" << s << "'";
        }
      }
    }
  }
}

// --- Every host backend under every DOPPIO_FORCE_BACKEND -------------------

TEST(PatternSetPropertyTest, HostBackendsMatchSoloRunsPerStream) {
  const auto corpus = Corpus();
  for (const char* forced : {(const char*)nullptr, "scalar", "simd"}) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", forced);
    for (const auto& subset : kSubsets) {
      auto members = CompileMembers(subset);
      RegexConfig set = CompileSet(members);
      auto set_program =
          CompiledPuProgram::Compile(set.vector, WideDevice());
      ASSERT_TRUE(set_program.ok());
      const KernelBackend& backend =
          BackendRegistry::Global().ChooseHost(**set_program);
      std::unique_ptr<HostExecution> set_exec =
          backend.NewExecution(*set_program);

      std::vector<std::unique_ptr<HostExecution>> solo;
      for (const RegexConfig& member : members) {
        auto program = CompiledPuProgram::Compile(member.vector, WideDevice());
        ASSERT_TRUE(program.ok());
        solo.push_back(BackendRegistry::Global()
                           .ChooseHost(**program)
                           .NewExecution(*program));
      }
      std::vector<uint16_t> match(subset.size());
      for (const std::string& s : corpus) {
        set_exec->MatchSet(s, match.data());
        for (size_t p = 0; p < subset.size(); ++p) {
          EXPECT_EQ(match[p], solo[p]->Match(s))
              << "forced=" << (forced == nullptr ? "(auto)" : forced)
              << " member " << kMembers[subset[p]] << " on '" << s << "'";
        }
      }
    }
  }
}

TEST(PatternSetPropertyTest, ChainOnlySetsTakeBitParallelSetRoute) {
  ScopedEnv env("DOPPIO_FORCE_BACKEND", "simd");
  auto members = CompileMembers({0, 1, 2, 3});  // four literal chains
  RegexConfig set = CompileSet(members);
  auto program = CompiledPuProgram::Compile(set.vector, WideDevice());
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE((*program)->members_chain_shaped());
  const KernelBackend& backend =
      BackendRegistry::Global().ChooseHost(**program);
  EXPECT_EQ(backend.id(), BackendId::kCpuSimd);
  auto exec = backend.NewExecution(*program);
  EXPECT_STREQ(exec->kernel_name(), "bit-parallel-set");
}

// --- The simulated device, per stream --------------------------------------

TEST(PatternSetPropertyTest, DeviceSetScanMatchesSoloScans) {
  Hal::Options hal_options;
  hal_options.shared_memory_bytes = 256 * kSharedPageBytes;
  hal_options.functional_threads = 1;
  Hal hal(hal_options);

  Bat input(ValueType::kString, hal.bat_allocator());
  const char* rows[] = {"7 Berner Strasse|61234", "12 Berner Gasse|61234",
                        "1 Haupt Strasse|99999", "no address at all"};
  for (int i = 0; i < 96; ++i) {
    ASSERT_TRUE(input.AppendString(rows[i % 4]).ok());
  }

  // The paper geometry holds exactly this four-pattern union (23 of 24
  // character matchers, 8 of 8 states).
  const std::vector<std::string> patterns = {"Strasse", "Gasse", "Berner",
                                             "61234"};
  std::vector<RegexConfig> members;
  std::vector<const TokenNfa*> nfas;
  for (const std::string& pattern : patterns) {
    auto config = hal.CompileConfig(pattern);
    ASSERT_TRUE(config.ok()) << pattern;
    members.push_back(std::move(*config));
  }
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  auto set = CompileRegexSetConfig(nfas, hal.device_config());
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  FpgaBatchQuery query;
  query.input = &input;
  query.config = &*set;
  query.streams = static_cast<int>(patterns.size());
  std::vector<FpgaBatchQuery*> batch{&query};
  Status st = RegexpFpgaBatchPooled(&hal, batch);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(query.out.stats.strategy, "fpga-set");
  ASSERT_EQ(query.set_outputs.size(), patterns.size());

  for (size_t p = 0; p < patterns.size(); ++p) {
    auto solo = RegexpFpgaPartitioned(&hal, input, members[p]);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    const Bat& stream = *query.set_outputs[p].result;
    ASSERT_EQ(stream.count(), input.count());
    for (int64_t i = 0; i < input.count(); ++i) {
      EXPECT_EQ(stream.GetInt16(i), solo->result->GetInt16(i))
          << patterns[p] << " row " << i;
    }
    EXPECT_EQ(query.set_outputs[p].stats.rows_matched,
              solo->stats.rows_matched)
        << patterns[p];
  }
}

}  // namespace
}  // namespace doppio
