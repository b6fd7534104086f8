#include "regex/pattern_parser.h"

#include <cctype>

namespace doppio {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view pattern) : input_(pattern) {}

  Result<AstNodePtr> Parse() {
    auto result = ParseAlternation();
    if (!result.ok()) return result.status();
    if (!AtEnd()) {
      return Error("unexpected '" + std::string(1, Peek()) + "'");
    }
    return result;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char Advance() { return input_[pos_++]; }
  bool Match(char c) {
    if (!AtEnd() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("regex parse error at position " +
                              std::to_string(pos_) + ": " + msg);
  }

  Result<AstNodePtr> ParseAlternation() {
    auto first = ParseConcat();
    if (!first.ok()) return first.status();
    if (AtEnd() || Peek() != '|') return first;
    std::vector<AstNodePtr> alts;
    alts.push_back(std::move(*first));
    while (Match('|')) {
      auto next = ParseConcat();
      if (!next.ok()) return next.status();
      alts.push_back(std::move(*next));
    }
    return AstNode::Alternate(std::move(alts));
  }

  Result<AstNodePtr> ParseConcat() {
    std::vector<AstNodePtr> parts;
    std::string literal_run;
    auto flush_literal = [&]() {
      if (!literal_run.empty()) {
        parts.push_back(AstNode::Literal(std::move(literal_run)));
        literal_run.clear();
      }
    };

    while (!AtEnd() && Peek() != '|' && Peek() != ')') {
      // A plain byte with no quantifier after it joins the literal run
      // directly, without an atom node.
      if (IsPlainByte(Peek()) && (pos_ + 1 >= input_.size() ||
                                  !IsQuantifierStart(input_[pos_ + 1]))) {
        literal_run.push_back(Advance());
        continue;
      }
      bool was_group = false;
      auto atom = ParseAtom(&was_group);
      if (!atom.ok()) return atom.status();
      AstNodePtr node = std::move(*atom);

      // Repetition binds to the last atom only; if a multi-character
      // literal (not a parenthesized group) is followed by a quantifier,
      // peel its last character.
      if (!AtEnd() && IsQuantifierStart(Peek())) {
        if (!was_group && node->kind == AstKind::kLiteral &&
            node->literal.size() > 1) {
          std::string head = node->literal.substr(0, node->literal.size() - 1);
          std::string tail(1, node->literal.back());
          literal_run += head;
          node = AstNode::Literal(std::move(tail));
        }
        flush_literal();
        auto repeated = ParseQuantifier(std::move(node));
        if (!repeated.ok()) return repeated.status();
        parts.push_back(std::move(*repeated));
        continue;
      }

      if (node->kind == AstKind::kLiteral) {
        literal_run += node->literal;
      } else {
        flush_literal();
        parts.push_back(std::move(node));
      }
    }
    flush_literal();
    if (parts.empty()) return AstNode::Empty();
    return AstNode::Concat(std::move(parts));
  }

  static bool IsQuantifierStart(char c) {
    return c == '*' || c == '+' || c == '?' || c == '{';
  }

  // Bytes ParseAtom turns into a one-byte literal.
  static bool IsPlainByte(char c) {
    switch (c) {
      case '(': case ')': case '[': case ']': case '{': case '}':
      case '.': case '\\': case '*': case '+': case '?': case '|':
        return false;
      default:
        return true;
    }
  }

  Result<AstNodePtr> ParseQuantifier(AstNodePtr atom) {
    if (atom->kind == AstKind::kEmpty) {
      return Error("quantifier with nothing to repeat");
    }
    char q = Advance();
    int min = 0;
    int max = -1;
    switch (q) {
      case '*':
        min = 0;
        max = -1;
        break;
      case '+':
        min = 1;
        max = -1;
        break;
      case '?':
        min = 0;
        max = 1;
        break;
      case '{': {
        auto n = ParseInt();
        if (!n.ok()) return n.status();
        min = *n;
        max = min;
        if (Match(',')) {
          if (Match('}')) {
            max = -1;
            return AstNode::Repeat(std::move(atom), min, max);
          }
          auto m = ParseInt();
          if (!m.ok()) return m.status();
          max = *m;
        }
        if (!Match('}')) return Error("expected '}' in repetition");
        if (max >= 0 && max < min) {
          return Error("repetition bounds out of order");
        }
        break;
      }
      default:
        return Error("internal: bad quantifier");
    }
    // Reject double quantifiers like a** (ill-formed in this dialect).
    if (!AtEnd() && IsQuantifierStart(Peek())) {
      return Error("nested quantifier");
    }
    return AstNode::Repeat(std::move(atom), min, max);
  }

  Result<int> ParseInt() {
    if (AtEnd() || std::isdigit(static_cast<unsigned char>(Peek())) == 0) {
      return Error("expected number");
    }
    long value = 0;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
      value = value * 10 + (Advance() - '0');
      if (value > 4096) return Error("repetition count too large");
    }
    return static_cast<int>(value);
  }

  Result<AstNodePtr> ParseAtom(bool* was_group) {
    *was_group = false;
    char c = Advance();
    switch (c) {
      case '(': {
        auto inner = ParseAlternation();
        if (!inner.ok()) return inner.status();
        if (!Match(')')) return Error("expected ')'");
        *was_group = true;
        return inner;
      }
      case '[':
        return ParseClass();
      case '.':
        return AstNode::Class(CharSet::AnyChar());
      case '\\':
        return ParseEscape();
      case '*':
      case '+':
      case '?':
        return Error("quantifier with nothing to repeat");
      case '{':
      case '}':
      case ']':
        return Error(std::string("unescaped '") + c + "'");
      default:
        return AstNode::Literal(std::string(1, c));
    }
  }

  Result<AstNodePtr> ParseEscape() {
    if (AtEnd()) return Error("dangling escape");
    char c = Advance();
    switch (c) {
      case 'd':
        return AstNode::Class(CharSet::Range('0', '9'));
      case 'w': {
        CharSet set = CharSet::Range('a', 'z');
        set.AddRange('A', 'Z');
        set.AddRange('0', '9');
        set.Add('_');
        return AstNode::Class(set);
      }
      case 's': {
        CharSet set;
        set.Add(' ');
        set.Add('\t');
        set.Add('\r');
        set.Add('\n');
        return AstNode::Class(set);
      }
      case 'n':
        return AstNode::Literal("\n");
      case 't':
        return AstNode::Literal("\t");
      default:
        // Any other escaped byte matches itself (covers \. \: \\ etc.).
        return AstNode::Literal(std::string(1, c));
    }
  }

  Result<AstNodePtr> ParseClass() {
    CharSet set;
    bool negate = Match('^');
    bool first = true;
    while (true) {
      if (AtEnd()) return Error("unterminated character class");
      char c = Advance();
      if (c == ']' && !first) break;
      first = false;
      uint8_t lo;
      if (c == '\\') {
        if (AtEnd()) return Error("dangling escape in class");
        char esc = Advance();
        if (esc == 'd') {
          set.AddRange('0', '9');
          continue;
        }
        lo = static_cast<uint8_t>(esc);
      } else {
        lo = static_cast<uint8_t>(c);
      }
      // Range?
      if (!AtEnd() && Peek() == '-' && pos_ + 1 < input_.size() &&
          input_[pos_ + 1] != ']') {
        Advance();  // '-'
        char hc = Advance();
        uint8_t hi;
        if (hc == '\\') {
          if (AtEnd()) return Error("dangling escape in class");
          hi = static_cast<uint8_t>(Advance());
        } else {
          hi = static_cast<uint8_t>(hc);
        }
        if (hi < lo) return Error("class range out of order");
        set.AddRange(lo, hi);
      } else {
        set.Add(lo);
      }
    }
    if (set.Empty()) return Error("empty character class");
    if (negate) set.Negate();
    return AstNode::Class(set);
  }

  std::string_view input_;
  size_t pos_ = 0;
};

}  // namespace

Result<AstNodePtr> ParsePattern(std::string_view pattern) {
  return Parser(pattern).Parse();
}

Result<AnchoredPattern> ParseAnchoredPattern(std::string_view pattern) {
  AnchoredPattern out;
  if (!pattern.empty() && pattern.front() == '^') {
    out.anchor_start = true;
    pattern.remove_prefix(1);
  }
  if (!pattern.empty() && pattern.back() == '$') {
    // A trailing '$' is an anchor only when not escaped.
    size_t backslashes = 0;
    for (size_t i = pattern.size() - 1; i-- > 0 && pattern[i] == '\\';) {
      ++backslashes;
    }
    if (backslashes % 2 == 0) {
      out.anchor_end = true;
      pattern.remove_suffix(1);
    }
  }
  DOPPIO_ASSIGN_OR_RETURN(out.ast, ParsePattern(pattern));
  return out;
}

}  // namespace doppio
