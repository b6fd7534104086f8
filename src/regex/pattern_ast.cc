#include "regex/pattern_ast.h"

#include <algorithm>

namespace doppio {

AstNodePtr AstNode::Empty() {
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kEmpty;
  return node;
}

AstNodePtr AstNode::Literal(std::string text) {
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kLiteral;
  node->literal = std::move(text);
  return node;
}

AstNodePtr AstNode::Class(CharSet set) {
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kCharClass;
  node->char_class = set;
  return node;
}

AstNodePtr AstNode::Concat(std::vector<AstNodePtr> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kConcat;
  node->children = std::move(children);
  return node;
}

AstNodePtr AstNode::Alternate(std::vector<AstNodePtr> children) {
  if (children.size() == 1) return std::move(children[0]);
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kAlternate;
  node->children = std::move(children);
  return node;
}

AstNodePtr AstNode::Repeat(AstNodePtr child, int min, int max) {
  auto node = std::make_unique<AstNode>();
  node->kind = AstKind::kRepeat;
  node->children.push_back(std::move(child));
  node->repeat_min = min;
  node->repeat_max = max;
  return node;
}

AstNodePtr AstNode::Clone() const {
  auto node = std::make_unique<AstNode>();
  node->kind = kind;
  node->literal = literal;
  node->char_class = char_class;
  node->repeat_min = repeat_min;
  node->repeat_max = repeat_max;
  node->children.reserve(children.size());
  for (const auto& child : children) node->children.push_back(child->Clone());
  return node;
}

namespace {

// Escapes regex metacharacters in a literal for round-trippable rendering.
// '^' and '$' are literal inside a pattern but anchors at its edges, and a
// rendering can land anywhere in a larger pattern, so both are escaped.
std::string EscapeLiteral(const std::string& text) {
  static const std::string kMeta = R"(.*+?()[]{}|\:^$)";
  std::string out;
  for (char c : text) {
    if (kMeta.find(c) != std::string::npos) out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string AstNode::ToString() const {
  switch (kind) {
    case AstKind::kEmpty:
      return "";
    case AstKind::kLiteral:
      return EscapeLiteral(literal);
    case AstKind::kCharClass: {
      if (char_class == CharSet::AnyChar()) return ".";
      return char_class.ToString();
    }
    case AstKind::kConcat: {
      std::string out;
      for (const auto& child : children) {
        // An empty child renders as "()": dropping it would merge the
        // literals around it into one token chain.
        bool needs_group = child->kind == AstKind::kAlternate ||
                           child->kind == AstKind::kEmpty;
        if (needs_group) out.push_back('(');
        out += child->ToString();
        if (needs_group) out.push_back(')');
      }
      return out;
    }
    case AstKind::kAlternate: {
      std::string out = "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out.push_back('|');
        out += children[i]->ToString();
      }
      out.push_back(')');
      return out;
    }
    case AstKind::kRepeat: {
      const AstNode& child = *children[0];
      std::string inner = child.ToString();
      bool needs_group =
          child.kind == AstKind::kConcat || child.kind == AstKind::kAlternate ||
          (child.kind == AstKind::kLiteral && child.literal.size() > 1);
      if (needs_group) inner = "(" + inner + ")";
      if (repeat_min == 0 && repeat_max < 0) return inner + "*";
      if (repeat_min == 1 && repeat_max < 0) return inner + "+";
      if (repeat_min == 0 && repeat_max == 1) return inner + "?";
      if (repeat_max == repeat_min) {
        return inner + "{" + std::to_string(repeat_min) + "}";
      }
      if (repeat_max < 0) {
        return inner + "{" + std::to_string(repeat_min) + ",}";
      }
      return inner + "{" + std::to_string(repeat_min) + "," +
             std::to_string(repeat_max) + "}";
    }
  }
  return "";
}

bool AstNode::MatchesEmpty() const {
  switch (kind) {
    case AstKind::kEmpty:
      return true;
    case AstKind::kLiteral:
      return literal.empty();
    case AstKind::kCharClass:
      return false;
    case AstKind::kConcat:
      return std::all_of(children.begin(), children.end(),
                         [](const AstNodePtr& c) { return c->MatchesEmpty(); });
    case AstKind::kAlternate:
      return std::any_of(children.begin(), children.end(),
                         [](const AstNodePtr& c) { return c->MatchesEmpty(); });
    case AstKind::kRepeat:
      return repeat_min == 0 || children[0]->MatchesEmpty();
  }
  return false;
}

int AstNode::MinLength() const {
  switch (kind) {
    case AstKind::kEmpty:
      return 0;
    case AstKind::kLiteral:
      return static_cast<int>(literal.size());
    case AstKind::kCharClass:
      return 1;
    case AstKind::kConcat: {
      int total = 0;
      for (const auto& c : children) total += c->MinLength();
      return total;
    }
    case AstKind::kAlternate: {
      int best = INT32_MAX;
      for (const auto& c : children) best = std::min(best, c->MinLength());
      return best;
    }
    case AstKind::kRepeat:
      return repeat_min * children[0]->MinLength();
  }
  return 0;
}

void AstNode::FoldCase() {
  switch (kind) {
    case AstKind::kCharClass:
      char_class.FoldCase();
      break;
    case AstKind::kLiteral:
      // Literals with letters become per-char folded classes only at
      // compile time; here we keep the literal but record nothing. The
      // compilers consult `fold_case` in CompileOptions instead. For AST
      // level folding we lowercase the literal.
      for (char& c : literal) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      break;
    default:
      break;
  }
  for (auto& child : children) child->FoldCase();
}

}  // namespace doppio
