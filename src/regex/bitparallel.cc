#include "regex/bitparallel.h"

namespace doppio {

std::optional<BitParallelProgram> BitParallelProgram::Compile(
    const TokenNfa& nfa) {
  std::optional<std::vector<int>> chain = AnalyzeChainShape(nfa);
  if (!chain.has_value()) return std::nullopt;

  BitParallelProgram program;
  program.stages_.reserve(chain->size());
  for (int state_index : *chain) {
    const HwState& state = nfa.states[static_cast<size_t>(state_index)];
    const HwToken& token =
        nfa.tokens[static_cast<size_t>(state.trigger_tokens[0])];
    const int len = token.length();
    if (len <= 0 || len > 64) return std::nullopt;  // must fit one word

    Stage stage;
    stage.length = len;
    stage.accept_bit = uint64_t{1} << (len - 1);
    stage.masks.fill(0);
    for (int b = 0; b < 256; ++b) {
      uint64_t mask = 0;
      for (int j = 0; j < len; ++j) {
        if (token.chain[static_cast<size_t>(j)].Test(
                static_cast<uint8_t>(b))) {
          mask |= uint64_t{1} << j;
        }
      }
      stage.masks[static_cast<size_t>(b)] = mask;
    }

    // Anchor: the position matching the fewest distinct bytes, if that
    // count is small enough for the SIMD set scan. Rarer anchors mean
    // fewer candidate windows to verify.
    int best_offset = -1;
    int best_count = kMaxAnchorBytes + 1;
    for (int j = 0; j < len; ++j) {
      int count = 0;
      for (int b = 0; b < 256 && count < best_count; ++b) {
        if ((stage.masks[static_cast<size_t>(b)] >> j) & 1) ++count;
      }
      if (count > 0 && count < best_count) {
        best_count = count;
        best_offset = j;
      }
    }
    if (best_offset >= 0 && best_count <= kMaxAnchorBytes) {
      stage.anchor_offset = best_offset;
      for (int b = 0; b < 256; ++b) {
        if ((stage.masks[static_cast<size_t>(b)] >> best_offset) & 1) {
          stage.anchor_bytes.Insert(static_cast<uint8_t>(b));
        }
      }
    }
    program.stages_.push_back(std::move(stage));
  }
  return program;
}

size_t BitParallelProgram::Stage::FindEnd(std::string_view input,
                                          size_t from,
                                          simd::SimdLevel level) const {
  const size_t m = static_cast<size_t>(length);
  if (input.size() < m || from > input.size() - m) {
    return std::string_view::npos;
  }
  if (anchor_offset >= 0) {
    // Candidate scan: occurrences of the rare byte(s) at the anchor
    // offset, verified against the full fixed-length window. Candidates
    // arrive in increasing position, so the first verified window is the
    // earliest occurrence (fixed length: earliest start == earliest end).
    size_t c = from + static_cast<size_t>(anchor_offset);
    while (true) {
      c = simd::FindByteSetAtLevel(input, c, anchor_bytes, level);
      if (c == std::string_view::npos) return std::string_view::npos;
      const size_t start = c - static_cast<size_t>(anchor_offset);
      if (start + m > input.size()) return std::string_view::npos;
      bool verified = true;
      for (size_t j = 0; j < m; ++j) {
        if (((masks[static_cast<uint8_t>(input[start + j])] >> j) & 1) == 0) {
          verified = false;
          break;
        }
      }
      if (verified) return start + m;
      ++c;
    }
  }
  // Shift-And: bit j of `d` tracks "chain positions 0..j matched, ending
  // here". Two ops per byte, all prefix attempts in parallel.
  uint64_t d = 0;
  for (size_t i = from; i < input.size(); ++i) {
    d = ((d << 1) | 1) & masks[static_cast<uint8_t>(input[i])];
    if ((d & accept_bit) != 0) return i + 1;
  }
  return std::string_view::npos;
}

uint16_t BitParallelProgram::Find(std::string_view input,
                                  simd::SimdLevel level) const {
  size_t pos = 0;
  for (const Stage& stage : stages_) {
    const size_t end = stage.FindEnd(input, pos, level);
    if (end == std::string_view::npos) return 0;
    pos = end;
  }
  return pos > 65535 ? 65535 : static_cast<uint16_t>(pos);
}

int BitParallelProgram::num_anchored_stages() const {
  int n = 0;
  for (const Stage& stage : stages_) n += stage.anchor_offset >= 0 ? 1 : 0;
  return n;
}

}  // namespace doppio
