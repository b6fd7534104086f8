#include "regex/token_extractor.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "regex/pattern_parser.h"

namespace doppio {

namespace {

constexpr int kMaxPositions = 4096;

bool IsAnyClass(const AstNode& node) {
  return node.kind == AstKind::kCharClass &&
         node.char_class == CharSet::AnyChar();
}

bool IsDotStar(const AstNode& node) {
  return node.kind == AstKind::kRepeat && node.repeat_min == 0 &&
         node.repeat_max == -1 && IsAnyClass(*node.children[0]);
}

bool IsChainable(const AstNode& node) {
  return node.kind == AstKind::kLiteral || node.kind == AstKind::kCharClass;
}

// Flattens nested concatenations into one child list.
void CollectConcatChildren(const AstNode& node,
                           std::vector<const AstNode*>* out) {
  for (const auto& child : node.children) {
    if (child->kind == AstKind::kConcat) {
      CollectConcatChildren(*child, out);
    } else {
      out->push_back(child.get());
    }
  }
}

// Expands bounded repetitions so only *, +, ? remain. Returns null when
// the subtree holds no bounded repetition — the caller then uses `node`
// itself — so only the expanded spine is ever copied.
Result<AstNodePtr> ExpandRepeats(const AstNode& node, int* budget) {
  if (--(*budget) < 0) {
    return Status::CapacityExceeded("pattern expansion too large");
  }
  switch (node.kind) {
    case AstKind::kEmpty:
    case AstKind::kLiteral:
    case AstKind::kCharClass:
      return AstNodePtr();
    case AstKind::kConcat:
    case AstKind::kAlternate: {
      std::vector<AstNodePtr> children;  // filled from the first change on
      for (size_t i = 0; i < node.children.size(); ++i) {
        DOPPIO_ASSIGN_OR_RETURN(AstNodePtr expanded,
                                ExpandRepeats(*node.children[i], budget));
        if (expanded == nullptr && children.empty()) continue;
        if (children.empty()) {
          children.reserve(node.children.size());
          for (size_t k = 0; k < i; ++k) {
            children.push_back(node.children[k]->Clone());
          }
        }
        children.push_back(expanded != nullptr ? std::move(expanded)
                                               : node.children[i]->Clone());
      }
      if (children.empty()) return AstNodePtr();
      return node.kind == AstKind::kConcat
                 ? AstNode::Concat(std::move(children))
                 : AstNode::Alternate(std::move(children));
    }
    case AstKind::kRepeat: {
      DOPPIO_ASSIGN_OR_RETURN(AstNodePtr child,
                              ExpandRepeats(*node.children[0], budget));
      int min = node.repeat_min;
      int max = node.repeat_max;
      // Canonical forms pass through.
      const bool canonical = ((min == 0 || min == 1) && max == -1) ||
                             (min == 0 && max == 1);
      if (canonical) {
        if (child == nullptr) return AstNodePtr();
        return AstNode::Repeat(std::move(child), min, max);
      }
      if (child == nullptr) child = node.children[0]->Clone();
      *budget -= min;
      if (*budget < 0) {
        return Status::CapacityExceeded("pattern expansion too large");
      }
      std::vector<AstNodePtr> parts;
      for (int i = 0; i < min; ++i) parts.push_back(child->Clone());
      if (max == -1) {
        parts.push_back(AstNode::Repeat(child->Clone(), 0, -1));
      } else {
        for (int i = min; i < max; ++i) {
          parts.push_back(AstNode::Repeat(child->Clone(), 0, 1));
        }
      }
      if (parts.empty()) return AstNode::Empty();
      return AstNode::Concat(std::move(parts));
    }
  }
  return Status::Internal("unknown AST node");
}

// Rows of bits over the extractor's positions: one row per state, `words`
// 64-bit words per row, in one flat buffer.
class BitRows {
 public:
  BitRows(size_t rows, size_t bits)
      : words_((bits + 63) / 64), bits_(rows * words_, 0) {}

  uint64_t* row(size_t r) { return bits_.data() + r * words_; }
  const uint64_t* row(size_t r) const { return bits_.data() + r * words_; }
  bool Test(size_t r, size_t b) const {
    return (row(r)[b / 64] >> (b % 64)) & 1u;
  }
  void Set(size_t r, size_t b) { row(r)[b / 64] |= uint64_t{1} << (b % 64); }
  void Clear(size_t r, size_t b) {
    row(r)[b / 64] &= ~(uint64_t{1} << (b % 64));
  }
  void OrInto(size_t dst, size_t src) {
    for (size_t w = 0; w < words_; ++w) row(dst)[w] |= row(src)[w];
  }
  void ClearAll() { std::fill(bits_.begin(), bits_.end(), 0); }
  /// Row `a` without bit `a` equals row `b` without bit `b`.
  bool EqualExceptSelf(size_t a, size_t b) const {
    for (size_t w = 0; w < words_; ++w) {
      uint64_t x = row(a)[w];
      uint64_t y = row(b)[w];
      if (w == a / 64) x &= ~(uint64_t{1} << (a % 64));
      if (w == b / 64) y &= ~(uint64_t{1} << (b % 64));
      if (x != y) return false;
    }
    return true;
  }
  /// Calls fn(bit) for every set bit of row `r`, ascending.
  template <typename Fn>
  void ForEach(size_t r, Fn&& fn) const {
    for (size_t w = 0; w < words_; ++w) {
      for (uint64_t bits = row(r)[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<int>(w * 64 + static_cast<size_t>(
                                         std::countr_zero(bits))));
      }
    }
  }

 private:
  size_t words_;
  std::vector<uint64_t> bits_;
};

class Extractor {
 public:
  explicit Extractor(const CompileOptions& options) : options_(options) {}

  Result<TokenNfa> Run(const AstNode& ast) {
    if (options_.anchor_start || options_.anchor_end) {
      return Status::CapacityExceeded(
          "hardware engine performs unanchored search only");
    }
    int budget = kMaxPositions;
    DOPPIO_ASSIGN_OR_RETURN(AstNodePtr expanded, ExpandRepeats(ast, &budget));
    DOPPIO_ASSIGN_OR_RETURN(Frag frag,
                            Build(expanded != nullptr ? *expanded : ast));
    if (frag.nullable) {
      return Status::CapacityExceeded(
          "pattern matches the empty string; predicate is trivially true "
          "and not mappable to the hardware engine");
    }
    if (frag.last.empty() || positions_.empty()) {
      return Status::CapacityExceeded("pattern has no matchable tokens");
    }
    return Assemble(frag);
  }

 private:
  struct Frag {
    std::vector<int> first;
    std::vector<int> last;
    bool nullable = false;
  };

  struct StateFlags {
    bool start_gated = false;
    bool latch = false;
    bool accept = false;
    bool alive = true;
  };

  // Per-state graph: `tokens` holds the positions merged into a state,
  // `preds` its predecessor states (both indexed by position id).
  struct StateGraph {
    explicit StateGraph(size_t n) : tokens(n, n), preds(n, n), flags(n) {}
    BitRows tokens;
    BitRows preds;
    std::vector<StateFlags> flags;
  };

  CharSpec SpecFromSet(CharSet set) const {
    if (options_.case_insensitive) set.FoldCase();
    // User-specified collation (§6.4): equivalence classes land in the
    // character matchers' extra compare registers.
    for (const auto& [a, b] : options_.collation_equivalents) {
      if (set.Test(a)) set.Add(b);
      if (set.Test(b)) set.Add(a);
    }
    CharSpec spec;
    if (set == CharSet::All()) {
      spec.any = true;
      return spec;
    }
    // One range per run of member bytes. A run reaching byte 255 ends at
    // hi = 0xff: `end` is one past the run and may be 256.
    int runs = 0;
    for (int lo = set.NextMember(0); lo < 256;
         lo = set.NextMember(set.NextNonMember(lo))) {
      ++runs;
    }
    spec.ranges.reserve(static_cast<size_t>(runs));
    for (int lo = set.NextMember(0); lo < 256;) {
      const int end = set.NextNonMember(lo);
      spec.ranges.push_back(CharSpec::Range{static_cast<uint8_t>(lo),
                                            static_cast<uint8_t>(end - 1)});
      lo = set.NextMember(end);
    }
    return spec;
  }

  void AppendToChain(HwToken* chain, const AstNode& node) const {
    if (node.kind == AstKind::kLiteral) {
      chain->chain.reserve(chain->chain.size() + node.literal.size());
      for (char c : node.literal) {
        chain->chain.push_back(
            SpecFromSet(CharSet::Single(static_cast<uint8_t>(c))));
      }
    } else {
      chain->chain.push_back(SpecFromSet(node.char_class));
    }
  }

  Result<int> NewPosition(HwToken token) {
    if (static_cast<int>(positions_.size()) >= kMaxPositions) {
      return Status::CapacityExceeded("too many token positions");
    }
    if (token.length() > 64) {
      return Status::CapacityExceeded(
          "token chain exceeds the 64-matcher shift-register depth");
    }
    positions_.push_back(std::move(token));
    pos_latch_.push_back(false);
    return static_cast<int>(positions_.size()) - 1;
  }

  void Connect(const std::vector<int>& from, const std::vector<int>& to) {
    for (int q : from) {
      for (int p : to) follow_.emplace_back(q, p);
    }
  }

  Frag ConcatFrags(Frag a, Frag b) {
    Connect(a.last, b.first);
    Frag out;
    out.first = std::move(a.first);
    if (a.nullable) {
      out.first.insert(out.first.end(), b.first.begin(), b.first.end());
    }
    out.last = std::move(b.last);
    if (b.nullable) {
      out.last.insert(out.last.end(), a.last.begin(), a.last.end());
    }
    out.nullable = a.nullable && b.nullable;
    return out;
  }

  Result<Frag> Build(const AstNode& node) {
    switch (node.kind) {
      case AstKind::kEmpty:
        return Frag{{}, {}, true};
      case AstKind::kLiteral:
      case AstKind::kCharClass: {
        HwToken token;
        AppendToChain(&token, node);
        if (token.chain.empty()) return Frag{{}, {}, true};  // empty literal
        DOPPIO_ASSIGN_OR_RETURN(int p, NewPosition(std::move(token)));
        return Frag{{p}, {p}, false};
      }
      case AstKind::kConcat: {
        Frag acc{{}, {}, true};
        // Flatten nested concatenations (bounded-repeat expansion creates
        // them) so literal/class runs merge across the nesting into one
        // token chain.
        std::vector<const AstNode*> children;
        CollectConcatChildren(node, &children);
        size_t i = 0;
        while (i < children.size()) {
          const AstNode& child = *children[i];
          if (IsDotStar(child)) {
            // '.*' glue: latch the states currently able to end the prefix.
            // Leading '.*' (empty last set) is a no-op: search is
            // unanchored anyway.
            for (int p : acc.last) pos_latch_[static_cast<size_t>(p)] = true;
            ++i;
            continue;
          }
          if (IsChainable(child)) {
            // Character-sequence optimization (§6.3): collapse the maximal
            // run of literals/classes into one token chain.
            HwToken token;
            while (i < children.size() && IsChainable(*children[i])) {
              AppendToChain(&token, *children[i]);
              ++i;
            }
            if (token.chain.empty()) continue;  // run of empty literals
            DOPPIO_ASSIGN_OR_RETURN(int p, NewPosition(std::move(token)));
            acc = ConcatFrags(std::move(acc), Frag{{p}, {p}, false});
            continue;
          }
          DOPPIO_ASSIGN_OR_RETURN(Frag sub, Build(child));
          acc = ConcatFrags(std::move(acc), std::move(sub));
          ++i;
        }
        return acc;
      }
      case AstKind::kAlternate: {
        Frag out{{}, {}, false};
        for (const auto& child : node.children) {
          DOPPIO_ASSIGN_OR_RETURN(Frag sub, Build(*child));
          out.first.insert(out.first.end(), sub.first.begin(),
                           sub.first.end());
          out.last.insert(out.last.end(), sub.last.begin(), sub.last.end());
          out.nullable = out.nullable || sub.nullable;
        }
        return out;
      }
      case AstKind::kRepeat: {
        // Only *, +, ? reach here (bounded forms were expanded).
        if (IsDotStar(node)) {
          // Bare '.*' outside a concat: nullable glue with no positions.
          return Frag{{}, {}, true};
        }
        DOPPIO_ASSIGN_OR_RETURN(Frag sub, Build(*node.children[0]));
        if (node.repeat_max == -1) {
          Connect(sub.last, sub.first);  // loop back (re-trigger)
        }
        sub.nullable = sub.nullable || node.repeat_min == 0;
        return sub;
      }
    }
    return Status::Internal("unknown AST node");
  }

  // Builds states from positions, merges equivalent ones, dedupes tokens.
  Result<TokenNfa> Assemble(const Frag& frag) {
    const size_t n = positions_.size();
    StateGraph graph(n);
    for (int p : frag.first) {
      graph.flags[static_cast<size_t>(p)].start_gated = true;
    }
    for (size_t p = 0; p < n; ++p) {
      graph.tokens.Set(p, p);
      graph.flags[p].latch = pos_latch_[p];
    }
    for (const auto& [q, p] : follow_) {
      if (!graph.flags[static_cast<size_t>(p)].start_gated) {
        graph.preds.Set(static_cast<size_t>(p), static_cast<size_t>(q));
      }
    }
    for (int p : frag.last) graph.flags[static_cast<size_t>(p)].accept = true;

    MergeEquivalentStates(&graph);
    return Materialize(graph);
  }

  // Merges state b into an earlier state a when both carry the same flags,
  // neither references the other, and their predecessor and successor
  // sets agree up to self loops. The scan restarts after every merge.
  static void MergeEquivalentStates(StateGraph* g) {
    const size_t n = g->flags.size();
    std::vector<StateFlags>& flags = g->flags;
    BitRows succs(n, n);
    bool changed = true;
    while (changed) {
      changed = false;
      succs.ClearAll();
      for (size_t s = 0; s < n; ++s) {
        if (!flags[s].alive) continue;
        g->preds.ForEach(s, [&](int p) {
          succs.Set(static_cast<size_t>(p), s);
        });
      }
      for (size_t a = 0; a < n && !changed; ++a) {
        if (!flags[a].alive) continue;
        for (size_t b = a + 1; b < n; ++b) {
          if (!flags[b].alive) continue;
          if (flags[a].latch != flags[b].latch ||
              flags[a].accept != flags[b].accept ||
              flags[a].start_gated != flags[b].start_gated) {
            continue;
          }
          // No cross references (other than self loops).
          if (g->preds.Test(a, b) || g->preds.Test(b, a)) continue;
          if (g->preds.Test(a, a) != g->preds.Test(b, b) ||
              !g->preds.EqualExceptSelf(a, b)) {
            continue;
          }
          if (succs.Test(a, a) != succs.Test(b, b) ||
              !succs.EqualExceptSelf(a, b)) {
            continue;
          }
          // Merge b into a.
          g->tokens.OrInto(a, b);
          flags[b].alive = false;
          if (g->preds.Test(b, b)) g->preds.Set(a, a);
          for (size_t s = 0; s < n; ++s) {
            if (!flags[s].alive || !g->preds.Test(s, b)) continue;
            g->preds.Clear(s, b);
            g->preds.Set(s, a);
          }
          changed = true;
          break;
        }
      }
    }
  }

  Result<TokenNfa> Materialize(const StateGraph& g) {
    // Order states: non-accept first, accept last (paper: the end state is
    // the highest-indexed one).
    const size_t n = g.flags.size();
    std::vector<int> order;
    order.reserve(n);
    for (bool accept : {false, true}) {
      for (size_t s = 0; s < n; ++s) {
        if (g.flags[s].alive && g.flags[s].accept == accept) {
          order.push_back(static_cast<int>(s));
        }
      }
    }
    std::vector<int> remap(n, -1);
    for (size_t i = 0; i < order.size(); ++i) {
      remap[static_cast<size_t>(order[i])] = static_cast<int>(i);
    }

    TokenNfa nfa;
    nfa.tokens.reserve(n);
    nfa.states.resize(order.size());
    // Every position belongs to exactly one live state, so each is
    // interned once and can be moved out of positions_.
    auto intern_token = [&](int pos) {
      HwToken& token = positions_[static_cast<size_t>(pos)];
      for (size_t id = 0; id < nfa.tokens.size(); ++id) {
        if (nfa.tokens[id].chain == token.chain) return static_cast<int>(id);
      }
      nfa.tokens.push_back(std::move(token));
      return static_cast<int>(nfa.tokens.size()) - 1;
    };

    for (size_t i = 0; i < order.size(); ++i) {
      const size_t old_id = static_cast<size_t>(order[i]);
      HwState& out = nfa.states[i];
      g.tokens.ForEach(old_id, [&](int pos) {
        out.trigger_tokens.push_back(intern_token(pos));
      });
      std::sort(out.trigger_tokens.begin(), out.trigger_tokens.end());
      out.trigger_tokens.erase(
          std::unique(out.trigger_tokens.begin(), out.trigger_tokens.end()),
          out.trigger_tokens.end());
      g.preds.ForEach(old_id, [&](int p) {
        out.pred_states.push_back(remap[static_cast<size_t>(p)]);
      });
      std::sort(out.pred_states.begin(), out.pred_states.end());
      out.latch = g.flags[old_id].latch;
      out.accept = g.flags[old_id].accept;
    }
    DOPPIO_RETURN_NOT_OK(nfa.Validate());
    return nfa;
  }

  const CompileOptions& options_;
  std::vector<HwToken> positions_;
  std::vector<bool> pos_latch_;
  /// Follow edges (q, p): position p may follow position q.
  std::vector<std::pair<int, int>> follow_;
};

}  // namespace

Result<TokenNfa> ExtractTokenNfa(const AstNode& ast,
                                 const CompileOptions& options) {
  return Extractor(options).Run(ast);
}

Result<TokenNfa> ExtractTokenNfa(std::string_view pattern,
                                 const CompileOptions& options) {
  DOPPIO_ASSIGN_OR_RETURN(AstNodePtr ast, ParsePattern(pattern));
  return ExtractTokenNfa(*ast, options);
}

}  // namespace doppio
