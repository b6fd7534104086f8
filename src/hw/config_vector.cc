#include "hw/config_vector.h"

namespace doppio {

// Wire format (little-endian, byte granularity, zero-padded to 64 B words):
//   u8  magic (0xD0)
//   u8  version (1)
//   u8  num_tokens
//   u8  num_states
//   tokens:  per token:
//     u8 chain_len
//     per chain position:
//       u8 spec_kind: 0xFF = any, else number of ranges
//       per range: u8 lo, u8 hi
//   states:  per state:
//     u4-words: trigger bitmask  (ceil(num_tokens/8) bytes)
//     pred bitmask               (ceil(num_states/8) bytes)
//     u8 flags: bit0 latch, bit1 accept, bit2 tagged
//     if tagged: u8 pattern_tag (set-compiled unions only; a tag of 0 is
//     encoded without the flag, so single-pattern vectors are byte-for-byte
//     what version 1 always emitted)
namespace {
constexpr uint8_t kMagic = 0xD0;
constexpr uint8_t kVersion = 1;
constexpr uint8_t kAnySpec = 0xFF;
}  // namespace

Result<ConfigVector> ConfigVector::Encode(const TokenNfa& nfa) {
  DOPPIO_RETURN_NOT_OK(nfa.Validate());
  if (nfa.tokens.size() > 255 || nfa.states.size() > 255) {
    return Status::CapacityExceeded("token NFA too large for config vector");
  }
  const size_t trigger_bytes = (nfa.tokens.size() + 7) / 8;
  const size_t pred_bytes = (nfa.states.size() + 7) / 8;
  size_t size = 4;
  for (const HwToken& token : nfa.tokens) {
    size += 1;
    for (const CharSpec& spec : token.chain) {
      if (!spec.any && spec.ranges.size() >= kAnySpec) {
        return Status::Internal("character spec with too many ranges");
      }
      size += 1 + (spec.any ? 0 : 2 * spec.ranges.size());
    }
  }
  for (const HwState& state : nfa.states) {
    size += trigger_bytes + pred_bytes + 1 + (state.pattern_tag != 0 ? 1 : 0);
  }
  const size_t words = (size + kConfigWordBytes - 1) / kConfigWordBytes;

  // Zero-filled to whole 512-bit words; every field is written in place.
  ConfigVector out;
  out.bytes_.assign(words * kConfigWordBytes, 0);
  uint8_t* b = out.bytes_.data();
  *b++ = kMagic;
  *b++ = kVersion;
  *b++ = static_cast<uint8_t>(nfa.tokens.size());
  *b++ = static_cast<uint8_t>(nfa.states.size());

  for (const HwToken& token : nfa.tokens) {
    *b++ = static_cast<uint8_t>(token.chain.size());
    for (const CharSpec& spec : token.chain) {
      if (spec.any) {
        *b++ = kAnySpec;
        continue;
      }
      *b++ = static_cast<uint8_t>(spec.ranges.size());
      for (const CharSpec::Range& r : spec.ranges) {
        *b++ = r.lo;
        *b++ = r.hi;
      }
    }
  }

  for (const HwState& state : nfa.states) {
    for (int t : state.trigger_tokens) {
      b[static_cast<size_t>(t) / 8] |= static_cast<uint8_t>(1u << (t % 8));
    }
    b += trigger_bytes;
    for (int p : state.pred_states) {
      b[static_cast<size_t>(p) / 8] |= static_cast<uint8_t>(1u << (p % 8));
    }
    b += pred_bytes;
    uint8_t flags = 0;
    if (state.latch) flags |= 1;
    if (state.accept) flags |= 2;
    if (state.pattern_tag != 0) flags |= 4;
    *b++ = flags;
    if (state.pattern_tag != 0) {
      *b++ = static_cast<uint8_t>(state.pattern_tag);
    }
  }
  return out;
}

Result<ConfigVector> ConfigVector::FromBytes(std::vector<uint8_t> bytes) {
  ConfigVector out;
  out.bytes_ = std::move(bytes);
  DOPPIO_ASSIGN_OR_RETURN(TokenNfa nfa, out.Decode());
  (void)nfa;
  return out;
}

Result<TokenNfa> ConfigVector::Decode() const {
  size_t pos = 0;
  auto need = [&](size_t n) {
    return pos + n <= bytes_.size()
               ? Status::OK()
               : Status::Internal("truncated config vector");
  };
  auto u8 = [&]() { return bytes_[pos++]; };

  DOPPIO_RETURN_NOT_OK(need(4));
  if (u8() != kMagic) return Status::Internal("bad config vector magic");
  if (u8() != kVersion) return Status::Internal("bad config vector version");
  const size_t num_tokens = u8();
  const size_t num_states = u8();

  TokenNfa nfa;
  nfa.tokens.resize(num_tokens);
  for (HwToken& token : nfa.tokens) {
    DOPPIO_RETURN_NOT_OK(need(1));
    const size_t chain_len = u8();
    token.chain.resize(chain_len);
    for (CharSpec& spec : token.chain) {
      DOPPIO_RETURN_NOT_OK(need(1));
      const uint8_t kind = u8();
      if (kind == kAnySpec) {
        spec.any = true;
        continue;
      }
      DOPPIO_RETURN_NOT_OK(need(static_cast<size_t>(kind) * 2));
      spec.ranges.resize(kind);
      for (CharSpec::Range& r : spec.ranges) {
        r.lo = u8();
        r.hi = u8();
      }
    }
  }

  const size_t trigger_bytes = (num_tokens + 7) / 8;
  const size_t pred_bytes = (num_states + 7) / 8;
  nfa.states.resize(num_states);
  for (HwState& state : nfa.states) {
    DOPPIO_RETURN_NOT_OK(need(trigger_bytes + pred_bytes + 1));
    for (size_t t = 0; t < num_tokens; ++t) {
      if ((bytes_[pos + t / 8] >> (t % 8)) & 1u) {
        state.trigger_tokens.push_back(static_cast<int>(t));
      }
    }
    pos += trigger_bytes;
    for (size_t s = 0; s < num_states; ++s) {
      if ((bytes_[pos + s / 8] >> (s % 8)) & 1u) {
        state.pred_states.push_back(static_cast<int>(s));
      }
    }
    pos += pred_bytes;
    const uint8_t flags = u8();
    state.latch = (flags & 1) != 0;
    state.accept = (flags & 2) != 0;
    if ((flags & 4) != 0) {
      DOPPIO_RETURN_NOT_OK(need(1));
      state.pattern_tag = u8();
    }
  }
  DOPPIO_RETURN_NOT_OK(nfa.Validate());
  return nfa;
}

}  // namespace doppio
