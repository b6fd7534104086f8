// 256-way byte set used as the character-class representation throughout
// the regex stack (parser, Thompson program, DFA) .
#pragma once

#include <bit>
#include <cctype>
#include <cstdint>
#include <string>

namespace doppio {

class CharSet {
 public:
  CharSet() = default;

  static CharSet Single(uint8_t c) {
    CharSet s;
    s.Add(c);
    return s;
  }
  static CharSet Range(uint8_t lo, uint8_t hi) {
    CharSet s;
    s.AddRange(lo, hi);
    return s;
  }
  /// '.' — any byte. The dialect matches whole SQL values (no line
  /// semantics), and the hardware wildcard matcher is also byte-blind, so
  /// both execution paths agree exactly.
  static CharSet AnyChar() { return All(); }
  static CharSet All() {
    CharSet s;
    for (uint64_t& w : s.words_) w = ~uint64_t{0};
    return s;
  }

  void Add(uint8_t c) { words_[c >> 6] |= uint64_t{1} << (c & 63); }
  void AddRange(uint8_t lo, uint8_t hi) {
    for (int c = lo; c <= hi; ++c) Add(static_cast<uint8_t>(c));
  }
  void Negate() {
    for (uint64_t& w : words_) w = ~w;
  }

  /// Adds the case counterpart of every ASCII letter currently in the set.
  void FoldCase() {
    // 'A'-'Z' are bits 1-26 of word 1, 'a'-'z' bits 33-58.
    constexpr uint64_t kUpper = uint64_t{0x07FFFFFE};
    const uint64_t w = words_[1];
    words_[1] |= ((w >> 32) & kUpper) | ((w & kUpper) << 32);
  }

  bool Test(uint8_t c) const { return (words_[c >> 6] >> (c & 63)) & 1u; }
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }
  bool Empty() const {
    return (words_[0] | words_[1] | words_[2] | words_[3]) == 0;
  }

  /// First member byte >= `from`, or 256 when there is none.
  int NextMember(int from) const { return NextWhere(from, 0); }
  /// First non-member byte >= `from`, or 256 when every byte from there
  /// on is a member.
  int NextNonMember(int from) const { return NextWhere(from, ~uint64_t{0}); }

  bool operator==(const CharSet& other) const {
    for (int i = 0; i < 4; ++i) {
      if (words_[i] != other.words_[i]) return false;
    }
    return true;
  }

  /// Debug rendering, e.g. "[a-c8]".
  std::string ToString() const;

 private:
  // First byte >= from whose bit differs from the bits of `flip` (0: the
  // first set bit; all ones: the first clear bit); 256 when none.
  int NextWhere(int from, uint64_t flip) const {
    if (from >= 256) return 256;
    int word = from >> 6;
    uint64_t bits = (words_[word] ^ flip) & (~uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (++word == 4) return 256;
      bits = words_[word] ^ flip;
    }
    return (word << 6) + std::countr_zero(bits);
  }

  uint64_t words_[4] = {0, 0, 0, 0};
};

inline std::string CharSet::ToString() const {
  std::string out = "[";
  auto emit = [&](int c) {
    if (std::isprint(c) != 0) {
      // Keep the rendering re-parsable: escape class metacharacters.
      if (c == ']' || c == '\\' || c == '-' || c == '^') {
        out.push_back('\\');
      }
      out.push_back(static_cast<char>(c));
    } else {
      // Backslash + raw byte: the class parser takes any escaped byte
      // literally, so this stays exactly re-parsable.
      out.push_back('\\');
      out.push_back(static_cast<char>(c));
    }
  };
  for (int lo = NextMember(0); lo < 256;) {
    const int end = NextNonMember(lo);  // one past the run; may be 256
    emit(lo);
    if (end - 1 > lo) {
      if (end - 1 > lo + 1) out.push_back('-');
      emit(end - 1);
    }
    lo = NextMember(end);
  }
  out.push_back(']');
  return out;
}

}  // namespace doppio
