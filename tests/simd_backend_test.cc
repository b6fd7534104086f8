// The SIMD host backend: the FindByteSet scan across every implementation
// level, the bit-parallel Shift-And engine and the lazy DFA behind its two
// exact skips (reset-state skip, accept-token row filter) against the
// scalar kernels (including the 16-bit saturation edge), the backend
// registry's choice logic and its 32-byte skip bound, and the
// DOPPIO_FORCE_BACKEND / DOPPIO_SIMD_LEVEL environment overrides.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "common/random.h"
#include "db/hudf.h"
#include "hw/config_compiler.h"
#include "hw/kernel_backend.h"
#include "hw/pu_kernel.h"
#include "regex/bitparallel.h"
#include "regex/simd_scan.h"

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

std::shared_ptr<const CompiledPuProgram> CompileProgram(
    const std::string& pattern,
    PuKernelOptions::Force force = PuKernelOptions::Force::kAuto) {
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  auto config = CompileRegexConfig(pattern, device);
  EXPECT_TRUE(config.ok()) << pattern;
  PuKernelOptions options;
  options.force = force;
  auto program = CompiledPuProgram::Compile(config->vector, device, options);
  EXPECT_TRUE(program.ok()) << pattern;
  return *program;
}

TEST(SimdScanTest, LevelsAgreeOnRandomHaystacks) {
  Rng rng(42);
  const std::string alphabet = "abcdefgh01234567 ";
  for (int iter = 0; iter < 200; ++iter) {
    const std::string hay = rng.FromAlphabet(
        alphabet, rng.NextBounded(257));  // 0..256: covers every tail size
    simd::ByteSet bytes;
    const int n = 1 + static_cast<int>(
                          rng.NextBounded(simd::ByteSet::kMaxCompareBytes));
    for (int i = 0; i < n; ++i) {
      bytes.Insert(static_cast<uint8_t>(
          alphabet[rng.NextBounded(alphabet.size())]));
    }
    for (size_t from = 0; from <= hay.size(); from += 1 + from / 4) {
      const size_t expect = simd::FindByteSetAtLevel(
          hay, from, bytes, simd::SimdLevel::kScalar);
      for (simd::SimdLevel level :
           {simd::SimdLevel::kSse2, simd::SimdLevel::kAvx2}) {
        if (level > simd::DetectedSimdLevel()) continue;
        EXPECT_EQ(simd::FindByteSetAtLevel(hay, from, bytes, level),
                  expect)
            << "level " << simd::SimdLevelName(level) << " from " << from;
      }
    }
  }
}

TEST(SimdScanTest, LevelsAgreeOnEveryByteValue) {
  // Sets of 0..255 members drawn from the low half (0x00-0x7f), the high
  // half (0x80-0xff) or both, scanned over haystacks of every byte value
  // at every length 0..256 and every start; each level must equal the
  // plain membership walk. The high half is where vpshufb's zeroing
  // lanes would diverge without the second nibble table.
  Rng rng(2024);
  const int sizes[] = {0, 1, 2, 4, 5, 10, 32, 33, 100, 127, 128, 200, 255};
  for (int kind = 0; kind < 3; ++kind) {
    for (int size : sizes) {
      const int lo = kind == 1 ? 0x80 : 0;
      const int span = kind == 2 ? 256 : 128;
      if (size > span) continue;
      simd::ByteSet set;
      while (set.size() < size) {
        set.Insert(static_cast<uint8_t>(lo + rng.NextBounded(span)));
      }
      for (size_t len = 0; len <= 256; ++len) {
        // Mostly non-members so scans run long; uniform bytes otherwise.
        // An exact-size heap buffer: under ASan any load past the last
        // byte is reported.
        std::unique_ptr<char[]> bytes(new char[len]);
        const bool sparse = (len % 2) == 0;
        for (size_t k = 0; k < len; ++k) {
          uint8_t b = static_cast<uint8_t>(rng.NextBounded(256));
          for (int tries = 0; sparse && set.Contains(b) && tries < 8;
               ++tries) {
            b = static_cast<uint8_t>(rng.NextBounded(256));
          }
          bytes[k] = static_cast<char>(b);
        }
        const std::string_view hay(bytes.get(), len);
        for (size_t from = 0; from <= len + 1; ++from) {
          size_t expect = std::string_view::npos;
          for (size_t k = from; k < len; ++k) {
            if (set.Contains(static_cast<uint8_t>(hay[k]))) {
              expect = k;
              break;
            }
          }
          for (simd::SimdLevel level :
               {simd::SimdLevel::kScalar, simd::SimdLevel::kSse2,
                simd::SimdLevel::kAvx2}) {
            if (level > simd::DetectedSimdLevel()) continue;
            ASSERT_EQ(simd::FindByteSetAtLevel(hay, from, set, level), expect)
                << "level " << simd::SimdLevelName(level) << " kind " << kind
                << " size " << size << " len " << len << " from " << from;
          }
        }
      }
    }
  }
}

TEST(SimdScanTest, EnvVarCapsActiveLevel) {
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", "scalar");
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
  }
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", "sse2");
    EXPECT_LE(simd::ActiveSimdLevel(), simd::SimdLevel::kSse2);
  }
  {
    ScopedEnv env("DOPPIO_SIMD_LEVEL", nullptr);
    EXPECT_EQ(simd::ActiveSimdLevel(), simd::DetectedSimdLevel());
  }
}

TEST(BitParallelTest, CompilesChainShapesOnly) {
  // Chain of two stages glued by '.*': compiles, anchored on rare bytes.
  auto chain = CompileProgram("abc.*x[0-9]z");
  auto bp = BitParallelProgram::Compile(chain->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_stages(), 2);
  EXPECT_EQ(bp->num_anchored_stages(), 2);

  // Alternation fans out the state graph: no chain shape.
  auto alt = CompileProgram("(abc|xyz)");
  EXPECT_FALSE(BitParallelProgram::Compile(alt->nfa()).has_value());
}

TEST(BitParallelTest, WideClassStageRunsUnanchored) {
  // Every position matches >4 bytes: no anchor, pure Shift-And loop.
  auto program = CompileProgram("[a-z][a-z][a-z]");
  auto bp = BitParallelProgram::Compile(program->nfa());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(bp->num_anchored_stages(), 0);
  EXPECT_EQ(bp->Find("A1 cat"), 6);
  EXPECT_EQ(bp->Find("A1 ca"), 0);
}

TEST(SimdBackendTest, AgreesWithScalarOnPatternSweep) {
  const char* patterns[] = {
      "Strasse", "abc.*def", "8[0-9][0-9][0-9][0-9]",
      "[0-9]+(USD|EUR|GBP)", "(abc|xyz)", "a.c", "x.*x",
      "(Strasse|Str\\.).*(8[0-9][0-9][0-9][0-9])",
  };
  Rng rng(7);
  const std::string alphabet = "abcdefxyz 0123456789SUDERGBP.st";
  const BackendRegistry& registry = BackendRegistry::Global();
  for (const char* pattern : patterns) {
    auto program = CompileProgram(pattern);
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    // And the SIMD backend with its vector paths disabled: the scalar
    // fallbacks inside the primitives must not change a single result.
    ScopedEnv cap("DOPPIO_SIMD_LEVEL", "scalar");
    auto simd_capped =
        registry.Get(BackendId::kCpuSimd).NewExecution(program);
    for (int i = 0; i < 400; ++i) {
      const std::string input =
          rng.FromAlphabet(alphabet, rng.NextBounded(64));
      const uint16_t expect = scalar->Match(input);
      ASSERT_EQ(simd->Match(input), expect)
          << pattern << " on '" << input << "'";
      ASSERT_EQ(simd_capped->Match(input), expect)
          << pattern << " on '" << input << "' (scalar-capped)";
    }
  }

  // Wide-start programs (start sets of 11, 26, 32, 36 and 94 bytes: the
  // first four on either side of the 32-byte skip bound, the rest
  // refused), over an alphabet that includes bytes >= 0x80, plus fixed
  // edge inputs: empty, an accept token with no digit before it, a match
  // on the last byte.
  const char* wide[] = {
      "[0-9]+(USD|EUR|GBP)",      "([|]x|[0-9]z)",
      "[A-Z][a-z]+(strasse|weg)", "([0-9]|[A-Z])(x|yz)",
      "(ab|[a-z]q)",              "([a-z]a|[0-9]b)",
      "([!-~]Q|zz)",              "([a-z]x|[0-5]y)",
      "(Strasse|Str\\.).*(8[0-9][0-9][0-9][0-9])",
  };
  const std::string wide_alphabet =
      "abqxyzQ|09AZ strasseweg 7USDEURGBP\x80\xc3\xa4\xff";
  const std::string edges[] = {
      "", "EUR", "x EUR", "12USD", "GBP 7", "9z", "Bweg", "Astrasse",
      "\xff\x80 5EUR", "zz", "\xc3\xa4Q", "Str. 80000",
  };
  Rng wide_rng(17);
  for (const char* pattern : wide) {
    auto program = CompileProgram(pattern);
    auto scalar = registry.Get(BackendId::kCpuScalar).NewExecution(program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    ScopedEnv cap("DOPPIO_SIMD_LEVEL", "sse2");
    auto simd_sse2 = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    std::vector<std::string> inputs(std::begin(edges), std::end(edges));
    for (int i = 0; i < 400; ++i) {
      inputs.push_back(
          wide_rng.FromAlphabet(wide_alphabet, wide_rng.NextBounded(96)));
    }
    for (const std::string& input : inputs) {
      const uint16_t expect = scalar->Match(input);
      ASSERT_EQ(simd->Match(input), expect)
          << pattern << " on '" << input << "'";
      ASSERT_EQ(simd_sse2->Match(input), expect)
          << pattern << " on '" << input << "' (sse2-capped)";
    }
  }

  // A match past 65535 saturates; a row whose only accept token sits
  // past 65535 without its prefix stays 0.
  auto q3 = CompileProgram("[0-9]+(USD|EUR|GBP)");
  auto q3_scalar = registry.Get(BackendId::kCpuScalar).NewExecution(q3);
  auto q3_simd = registry.Get(BackendId::kCpuSimd).NewExecution(q3);
  for (const char* tail : {"42EUR", " EUR", "7"}) {
    const std::string input = std::string(70000, 'x') + tail;
    ASSERT_EQ(q3_simd->Match(input), q3_scalar->Match(input)) << tail;
  }
  EXPECT_EQ(q3_simd->Match(std::string(70000, 'x') + "42EUR"), 65535);
}

TEST(SimdBackendTest, SetProgramFilterAgreesPerStream) {
  // A lazy-DFA set program whose members have distinct accept tokens:
  // rows carrying only one member's token must report that stream alone,
  // rows with none are 0 on every stream.
  DeviceConfig device;
  device.max_chars = 64;
  device.max_states = 32;
  std::vector<RegexConfig> members;
  for (const char* pattern :
       {"[0-9]+(USD|EUR)", "(qx|[0-9]y)", "(Strasse|Str\\.)"}) {
    auto config = CompileRegexConfig(pattern, device);
    ASSERT_TRUE(config.ok()) << pattern;
    members.push_back(std::move(*config));
  }
  std::vector<const TokenNfa*> nfas;
  for (const RegexConfig& member : members) nfas.push_back(&member.nfa);
  auto set = CompileRegexSetConfig(nfas, device);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  auto program = CompiledPuProgram::Compile(set->vector, device);
  ASSERT_TRUE(program.ok());
  ASSERT_EQ((*program)->num_patterns(), 3);
  ASSERT_NE((*program)->dfa_skips(), nullptr);
  EXPECT_FALSE((*program)->dfa_skips()->accept_tokens.empty());

  const BackendRegistry& registry = BackendRegistry::Global();
  auto scalar = registry.Get(BackendId::kCpuScalar).NewExecution(*program);
  auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(*program);
  EXPECT_STREQ(simd->kernel_name(), "dfa+prefilter");
  Rng rng(23);
  std::vector<std::string> inputs = {"",     "12USD", "ax",
                                     "Str.", "9y 4EUR", "qx",
                                     "\xe4 Strasse \xff", "USD EUR"};
  for (int i = 0; i < 300; ++i) {
    inputs.push_back(rng.FromAlphabet("Str.asexyq 09USDEUR\x80\xfe",
                                      rng.NextBounded(64)));
  }
  for (const std::string& input : inputs) {
    uint16_t expect[3];
    uint16_t got[3];
    scalar->MatchSet(input, expect);
    simd->MatchSet(input, got);
    for (int p = 0; p < 3; ++p) {
      ASSERT_EQ(got[p], expect[p]) << "stream " << p << " on '" << input
                                   << "'";
    }
    ASSERT_EQ(simd->Match(input), scalar->Match(input)) << input;
  }
  uint16_t only_first[3];
  simd->MatchSet("no tokens here 12USD", only_first);
  EXPECT_EQ(only_first[0], 20);
  EXPECT_EQ(only_first[1], 0);
  EXPECT_EQ(only_first[2], 0);
}

TEST(SimdBackendTest, AcceptTokenFilterIsExact) {
  // Q3's accept edges are USD/EUR/GBP, anchored on one byte each.
  auto q3 = CompileProgram("[0-9]+(USD|EUR|GBP)");
  const LazyDfaSkips* skips = q3->dfa_skips();
  ASSERT_NE(skips, nullptr);
  EXPECT_EQ(skips->start.size(), 10);
  EXPECT_EQ(skips->accept_tokens.size(), 3u);
  EXPECT_EQ(skips->accept_anchors.size(), 3);
  for (simd::SimdLevel level : {simd::SimdLevel::kScalar,
                                simd::SimdLevel::kSse2,
                                simd::SimdLevel::kAvx2}) {
    EXPECT_FALSE(q3->MayAccept("", level));
    EXPECT_FALSE(q3->MayAccept("12 EU R GB USd", level));
    EXPECT_TRUE(q3->MayAccept("no digit EUR", level));  // token, no match
    EXPECT_TRUE(q3->MayAccept("GBP", level));
    EXPECT_FALSE(q3->MayAccept("GB", level));  // window past the end
  }
  // One start byte, but the accept token's anchors span 94 bytes: the
  // skip stays, the filter is off, and MayAccept always answers "run the
  // DFA".
  auto wide_accept = CompileProgram("(Strasse|Str\\.).*([!-~][!-~])");
  ASSERT_NE(wide_accept->dfa_skips(), nullptr);
  EXPECT_TRUE(wide_accept->dfa_skips()->accept_tokens.empty());
  EXPECT_TRUE(wide_accept->MayAccept("", simd::SimdLevel::kScalar));
}

TEST(SimdBackendTest, SaturatesMatchIndexAt65535) {
  const BackendRegistry& registry = BackendRegistry::Global();
  // Chain-shaped program (bit-parallel path) and a fan-out program whose
  // escape set is small (prefiltered lazy-DFA path).
  for (const char* pattern : {"qzk", "(qzk|qzm)"}) {
    auto program = CompileProgram(pattern);
    auto scalar =
        registry.Get(BackendId::kCpuScalar).NewExecution(program);
    auto simd = registry.Get(BackendId::kCpuSimd).NewExecution(program);
    for (size_t end : {size_t{65534}, size_t{65535}, size_t{65536},
                       size_t{70000}}) {
      std::string input(end - 3, 'x');
      input += "qzk";
      input.resize(end + 50, 'y');  // tail beyond the match
      const uint16_t expect_scalar = scalar->Match(input);
      const uint16_t expect =
          end <= 65535 ? static_cast<uint16_t>(end) : uint16_t{65535};
      EXPECT_EQ(expect_scalar, expect) << pattern << " end " << end;
      EXPECT_EQ(simd->Match(input), expect_scalar)
          << pattern << " end " << end;
    }
  }
}

TEST(KernelBackendTest, ForcedBackendParsesEnvValues) {
  struct {
    const char* value;
    std::optional<BackendId> expect;
  } cases[] = {
      {"scalar", BackendId::kCpuScalar},
      {"cpu-scalar", BackendId::kCpuScalar},
      {"simd", BackendId::kCpuSimd},
      {"cpu-simd", BackendId::kCpuSimd},
      {"fpga", BackendId::kFpgaSim},
      {"fpga-sim", BackendId::kFpgaSim},
      {"bogus", std::nullopt},
      {nullptr, std::nullopt},
  };
  for (const auto& c : cases) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", c.value);
    EXPECT_EQ(ForcedBackend(), c.expect)
        << (c.value == nullptr ? "<unset>" : c.value);
  }
}

TEST(KernelBackendTest, ChoosesSimdWhenSupportedScalarOtherwise) {
  ScopedEnv env("DOPPIO_FORCE_BACKEND", nullptr);
  const BackendRegistry& registry = BackendRegistry::Global();

  // Chain-shaped literal: bit-parallel eligible.
  auto literal = CompileProgram("Strasse");
  EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuSimd);

  // Fan-out with a single escape byte: prefiltered lazy DFA.
  auto prefilter = CompileProgram("(Strasse|Str\\.)");
  EXPECT_EQ(prefilter->kernel(), PuKernelKind::kLazyDfa);
  EXPECT_EQ(prefilter->start_bytes().size(), 1u);
  EXPECT_EQ(registry.ChooseHost(*prefilter).id(), BackendId::kCpuSimd);

  // Broad-start fan-out: escape set beyond the 32-byte skip bound.
  auto broad = CompileProgram("([a-z]a|[0-9]b)");
  EXPECT_GT(broad->start_bytes().size(),
            static_cast<size_t>(CompiledPuProgram::kMaxSkipBytes));
  EXPECT_EQ(registry.ChooseHost(*broad).id(), BackendId::kCpuScalar);

  // Q3: ten start bytes, within the skip bound.
  auto q3 = CompileProgram("[0-9]+(USD|EUR|GBP)");
  EXPECT_EQ(registry.ChooseHost(*q3).id(), BackendId::kCpuSimd);
  EXPECT_STREQ(registry.ChooseHost(*q3).NewExecution(q3)->kernel_name(),
               "dfa+prefilter");

  // The bound itself: 32 start bytes take the skip, 33 do not.
  auto at_bound = CompileProgram("([a-z]x|[0-5]y)");
  EXPECT_EQ(at_bound->start_bytes().size(), 32u);
  EXPECT_EQ(registry.ChooseHost(*at_bound).id(), BackendId::kCpuSimd);
  auto past_bound = CompileProgram("([a-z]x|[0-6]y)");
  EXPECT_EQ(past_bound->start_bytes().size(), 33u);
  EXPECT_EQ(registry.ChooseHost(*past_bound).id(), BackendId::kCpuScalar);

  // Forced NFA-loop programs stay on the scalar interpreter.
  auto forced_loop =
      CompileProgram("Strasse", PuKernelOptions::Force::kNfaLoop);
  EXPECT_EQ(registry.ChooseHost(*forced_loop).id(), BackendId::kCpuScalar);
}

TEST(KernelBackendTest, ForcedBackendWinsAndNeverFails) {
  const BackendRegistry& registry = BackendRegistry::Global();
  auto broad = CompileProgram("([a-z]a|[0-9]b)");
  auto literal = CompileProgram("Strasse");
  {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "simd");
    EXPECT_EQ(registry.ChooseHost(*broad).id(), BackendId::kCpuSimd);
    // Unsupported program under a forced SIMD backend: internal scalar
    // fallback, same results.
    auto exec = registry.Get(BackendId::kCpuSimd).NewExecution(broad);
    auto scalar = registry.Get(BackendId::kCpuScalar).NewExecution(broad);
    for (const char* s : {"", "za", "7b", "zb 7a", "qa0b"}) {
      EXPECT_EQ(exec->Match(s), scalar->Match(s)) << "'" << s << "'";
    }
  }
  {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "scalar");
    EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuScalar);
  }
  {
    // Forced fpga pins routing, not the host degrade path.
    ScopedEnv env("DOPPIO_FORCE_BACKEND", "fpga");
    EXPECT_EQ(registry.ChooseHost(*literal).id(), BackendId::kCpuSimd);
  }
}

TEST(KernelBackendTest, HostSliceMatchesAcrossForcedBackends) {
  Rng rng(11);
  Bat input(ValueType::kString);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        input
            .AppendString(rng.FromAlphabet("abcStrse 0123456789.",
                                           rng.NextBounded(48)))
            .ok());
  }
  DeviceConfig device;
  const std::string pattern = "(Strasse|Str\\.).*(8[0-9][0-9][0-9][0-9])";
  auto config = CompileRegexConfig(pattern, device);
  ASSERT_TRUE(config.ok()) << config.status().ToString();

  std::vector<int16_t> reference;
  for (const char* backend : {"scalar", "simd"}) {
    ScopedEnv env("DOPPIO_FORCE_BACKEND", backend);
    auto result = RegexpHost(device, input, *config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.strategy,
              std::string("host-cpu-") + backend);
    const int16_t* values =
        reinterpret_cast<const int16_t*>(result->result->tail_data());
    if (reference.empty()) {
      reference.assign(values, values + input.count());
    } else {
      for (int64_t i = 0; i < input.count(); ++i) {
        ASSERT_EQ(values[i], reference[i])
            << backend << " row " << i << " '" << input.GetString(i) << "'";
      }
    }
  }
}

}  // namespace
}  // namespace doppio
