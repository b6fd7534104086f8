#include "sql/executor.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "regex/backtrack_matcher.h"
#include "regex/dfa_matcher.h"
#include "regex/like_translator.h"
#include "regex/substring_search.h"
#include "regex/thompson_nfa.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace doppio {
namespace sql {

namespace {

// ---------------------------------------------------------------------------
// Relation abstraction

class Rel {
 public:
  virtual ~Rel() = default;
  virtual int64_t rows() const = 0;
  virtual int num_columns() const = 0;
  virtual const std::string& column_name(int col) const = 0;
  virtual int Find(const std::string& name) const = 0;
  virtual bool IsString(int col) const = 0;
  virtual bool IsNull(int col, int64_t row) const = 0;
  virtual int64_t GetInt(int col, int64_t row) const = 0;
  virtual std::string_view GetString(int col, int64_t row) const = 0;
  /// Base table when the relation is a direct scan (enables bulk string
  /// operators); nullptr otherwise.
  virtual const Table* base_table() const { return nullptr; }
};

class TableRel : public Rel {
 public:
  explicit TableRel(const Table* table) : table_(table) {}

  int64_t rows() const override { return table_->num_rows(); }
  int num_columns() const override { return table_->num_columns(); }
  const std::string& column_name(int col) const override {
    return table_->column_name(col);
  }
  int Find(const std::string& name) const override {
    return table_->ColumnIndex(name);
  }
  bool IsString(int col) const override {
    return table_->column(col)->type() == ValueType::kString;
  }
  bool IsNull(int, int64_t) const override { return false; }
  int64_t GetInt(int col, int64_t row) const override {
    const Bat* bat = table_->column(col);
    switch (bat->type()) {
      case ValueType::kInt32:
        return bat->GetInt32(row);
      case ValueType::kInt64:
        return bat->GetInt64(row);
      case ValueType::kInt16:
        return bat->GetInt16(row);
      default:
        return 0;
    }
  }
  std::string_view GetString(int col, int64_t row) const override {
    return table_->column(col)->GetString(row);
  }
  const Table* base_table() const override { return table_; }

 private:
  const Table* table_;
};

class ResultRel : public Rel {
 public:
  ResultRel(ResultSet data, std::vector<std::string> names)
      : data_(std::move(data)), names_(std::move(names)) {
    DOPPIO_CHECK(names_.size() == data_.columns.size());
  }

  int64_t rows() const override { return data_.num_rows(); }
  int num_columns() const override { return data_.num_columns(); }
  const std::string& column_name(int col) const override {
    return names_[static_cast<size_t>(col)];
  }
  int Find(const std::string& name) const override {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  bool IsString(int col) const override {
    return data_.columns[static_cast<size_t>(col)].is_string;
  }
  bool IsNull(int col, int64_t row) const override {
    return !data_.columns[static_cast<size_t>(col)].IsValid(row);
  }
  int64_t GetInt(int col, int64_t row) const override {
    return data_.columns[static_cast<size_t>(col)]
        .ints[static_cast<size_t>(row)];
  }
  std::string_view GetString(int col, int64_t row) const override {
    return data_.columns[static_cast<size_t>(col)]
        .strings[static_cast<size_t>(row)];
  }

 private:
  ResultSet data_;
  std::vector<std::string> names_;
};

/// Materialized (left outer / inner) join: row pairs into two child rels.
class JoinRel : public Rel {
 public:
  JoinRel(std::unique_ptr<Rel> left, std::unique_ptr<Rel> right,
          std::vector<int64_t> left_rows, std::vector<int64_t> right_rows)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_rows_(std::move(left_rows)),
        right_rows_(std::move(right_rows)) {}

  int64_t rows() const override {
    return static_cast<int64_t>(left_rows_.size());
  }
  int num_columns() const override {
    return left_->num_columns() + right_->num_columns();
  }
  const std::string& column_name(int col) const override {
    return col < left_->num_columns()
               ? left_->column_name(col)
               : right_->column_name(col - left_->num_columns());
  }
  int Find(const std::string& name) const override {
    int col = left_->Find(name);
    if (col >= 0) return col;
    col = right_->Find(name);
    return col < 0 ? -1 : col + left_->num_columns();
  }
  bool IsString(int col) const override {
    return col < left_->num_columns()
               ? left_->IsString(col)
               : right_->IsString(col - left_->num_columns());
  }
  bool IsNull(int col, int64_t row) const override {
    if (col < left_->num_columns()) {
      return left_->IsNull(col, left_rows_[static_cast<size_t>(row)]);
    }
    int64_t r = right_rows_[static_cast<size_t>(row)];
    if (r < 0) return true;  // outer-join null padding
    return right_->IsNull(col - left_->num_columns(), r);
  }
  int64_t GetInt(int col, int64_t row) const override {
    if (col < left_->num_columns()) {
      return left_->GetInt(col, left_rows_[static_cast<size_t>(row)]);
    }
    int64_t r = right_rows_[static_cast<size_t>(row)];
    return r < 0 ? 0 : right_->GetInt(col - left_->num_columns(), r);
  }
  std::string_view GetString(int col, int64_t row) const override {
    if (col < left_->num_columns()) {
      return left_->GetString(col, left_rows_[static_cast<size_t>(row)]);
    }
    int64_t r = right_rows_[static_cast<size_t>(row)];
    return r < 0 ? std::string_view()
                 : right_->GetString(col - left_->num_columns(), r);
  }

 private:
  std::unique_ptr<Rel> left_;
  std::unique_ptr<Rel> right_;
  std::vector<int64_t> left_rows_;
  std::vector<int64_t> right_rows_;  // -1 = unmatched (outer join)
};

// ---------------------------------------------------------------------------
// Generic expression evaluation over a Rel (residual predicates)

/// What a residual node reads, resolved once per query: the column of a
/// column reference, LIKE or regexp_like, and the matcher of the latter
/// two.
struct ResolvedNode {
  int col = -1;
  std::shared_ptr<StringMatcher> matcher;
};

struct EvalContext {
  const Rel* rel = nullptr;
  std::map<const Expr*, ResolvedNode> nodes;
};

Result<int> ResolveStringColumn(const Expr& column, const EvalContext& ctx,
                                const char* use) {
  const int col = ctx.rel->Find(column.name);
  if (col < 0 || !ctx.rel->IsString(col)) {
    return Status::InvalidArgument(std::string(use) +
                                   " over missing/non-string column '" +
                                   column.name + "'");
  }
  return col;
}

Status PrepareInt(const Expr& expr, EvalContext* ctx) {
  if (expr.kind == ExprKind::kIntLiteral) return Status::OK();
  if (expr.kind != ExprKind::kColumn) {
    return Status::NotImplemented("integer expression: " + expr.ToString());
  }
  const int col = ctx->rel->Find(expr.name);
  if (col < 0) {
    return Status::InvalidArgument("unknown column '" + expr.name + "'");
  }
  if (ctx->rel->IsString(col)) {
    return Status::InvalidArgument("column '" + expr.name +
                                   "' is not integer-typed");
  }
  ctx->nodes[&expr].col = col;
  return Status::OK();
}

/// Resolves every column the residual references against how it is used
/// (integer comparison, or LIKE / REGEXP_LIKE over a string) and compiles
/// each matcher, before any row is evaluated: whether a statement fails
/// never depends on the rows it meets.
Status PrepareBool(const Expr& expr, EvalContext* ctx) {
  switch (expr.kind) {
    case ExprKind::kBinary:
      if (expr.op == BinOp::kAnd || expr.op == BinOp::kOr) {
        DOPPIO_RETURN_NOT_OK(PrepareBool(*expr.args[0], ctx));
        return PrepareBool(*expr.args[1], ctx);
      }
      DOPPIO_RETURN_NOT_OK(PrepareInt(*expr.args[0], ctx));
      return PrepareInt(*expr.args[1], ctx);
    case ExprKind::kNot:
      return PrepareBool(*expr.args[0], ctx);
    case ExprKind::kLike: {
      if (expr.args[0]->kind != ExprKind::kColumn) {
        return Status::NotImplemented("LIKE over non-column expression");
      }
      DOPPIO_ASSIGN_OR_RETURN(int col,
                              ResolveStringColumn(*expr.args[0], *ctx, "LIKE"));
      DOPPIO_ASSIGN_OR_RETURN(LikeAnalysis like,
                              TranslateLike(expr.str_value));
      std::shared_ptr<StringMatcher> matcher;
      if (like.is_multi_substring) {
        DOPPIO_ASSIGN_OR_RETURN(
            auto m, MultiSubstringMatcher::Create(
                        like.substrings, expr.like_case_insensitive));
        matcher = std::move(m);
      } else {
        CompileOptions copts;
        copts.case_insensitive = expr.like_case_insensitive;
        copts.anchor_start = like.anchored_start;
        copts.anchor_end = like.anchored_end;
        DOPPIO_ASSIGN_OR_RETURN(Program program,
                                CompileProgram(*like.ast, copts));
        matcher = DfaMatcher::FromProgram(std::move(program));
      }
      ctx->nodes[&expr] = {col, std::move(matcher)};
      return Status::OK();
    }
    case ExprKind::kFunc: {
      if (expr.name != "regexp_like" || expr.args.size() != 2) {
        return Status::NotImplemented("function '" + expr.name +
                                      "' in predicate");
      }
      // Either argument order: REGEXP_LIKE(col, 'pat') or ('pat', col).
      const Expr* column = nullptr;
      const Expr* pattern = nullptr;
      for (const auto& a : expr.args) {
        if (a->kind == ExprKind::kColumn) column = a.get();
        if (a->kind == ExprKind::kStringLiteral) pattern = a.get();
      }
      if (column == nullptr || pattern == nullptr) {
        return Status::NotImplemented(
            "regexp_like needs one column and one pattern literal");
      }
      DOPPIO_ASSIGN_OR_RETURN(
          int col, ResolveStringColumn(*column, *ctx, "regexp_like"));
      DOPPIO_ASSIGN_OR_RETURN(auto matcher,
                              BacktrackMatcher::Compile(pattern->str_value));
      ctx->nodes[&expr] = {col, std::move(matcher)};
      return Status::OK();
    }
    default:
      return Status::NotImplemented("boolean expression: " + expr.ToString());
  }
}

struct CellValue {
  bool is_null = false;
  int64_t i = 0;
};

// Row evaluation over a residual that PrepareBool accepted: every shape
// and column is known to be valid here.
CellValue EvalInt(const EvalContext& ctx, const Expr& expr, int64_t row) {
  if (expr.kind == ExprKind::kIntLiteral) {
    return CellValue{false, expr.int_value};
  }
  const int col = ctx.nodes.at(&expr).col;
  if (ctx.rel->IsNull(col, row)) return CellValue{true, 0};
  return CellValue{false, ctx.rel->GetInt(col, row)};
}

bool EvalBool(const EvalContext& ctx, const Expr& expr, int64_t row) {
  switch (expr.kind) {
    case ExprKind::kBinary: {
      if (expr.op == BinOp::kAnd) {
        return EvalBool(ctx, *expr.args[0], row) &&
               EvalBool(ctx, *expr.args[1], row);
      }
      if (expr.op == BinOp::kOr) {
        return EvalBool(ctx, *expr.args[0], row) ||
               EvalBool(ctx, *expr.args[1], row);
      }
      const CellValue a = EvalInt(ctx, *expr.args[0], row);
      const CellValue b = EvalInt(ctx, *expr.args[1], row);
      if (a.is_null || b.is_null) return false;  // SQL: NULL comparisons
      switch (expr.op) {
        case BinOp::kEq:
          return a.i == b.i;
        case BinOp::kNe:
          return a.i != b.i;
        case BinOp::kLt:
          return a.i < b.i;
        case BinOp::kLe:
          return a.i <= b.i;
        case BinOp::kGt:
          return a.i > b.i;
        default:
          return a.i >= b.i;
      }
    }
    case ExprKind::kNot:
      return !EvalBool(ctx, *expr.args[0], row);
    default: {  // LIKE or regexp_like
      const ResolvedNode& node = ctx.nodes.at(&expr);
      if (ctx.rel->IsNull(node.col, row)) return false;
      const bool m = node.matcher->Matches(ctx.rel->GetString(node.col, row));
      return expr.kind == ExprKind::kLike ? m != expr.like_negated : m;
    }
  }
}

// ---------------------------------------------------------------------------
// Selection

/// Applies a planned filter over a relation; returns the selected row ids.
Result<std::vector<int64_t>> ComputeSelection(ColumnStoreEngine* engine,
                                              const Rel& rel,
                                              PlannedFilter filter,
                                              QueryStats* stats) {
  const int64_t n = rel.rows();
  ExprPtr residual = std::move(filter.residual);

  // String predicates over a base table's string column run as bulk
  // operators; any other is demoted to the residual (e.g. a predicate over
  // a derived table).
  const Table* base = rel.base_table();
  std::vector<std::pair<const Bat*, const StringFilterSpec*>> scans;
  for (auto& fast : filter.fast) {
    const Bat* column =
        base != nullptr ? base->GetColumn(fast.column) : nullptr;
    if (column != nullptr && column->type() == ValueType::kString) {
      scans.emplace_back(column, &fast.spec);
    } else if (residual == nullptr) {
      residual = std::move(fast.original);
    } else {
      residual = Expr::Binary(BinOp::kAnd, std::move(residual),
                              std::move(fast.original));
    }
  }
  EvalContext ctx;
  ctx.rel = &rel;
  if (residual != nullptr) DOPPIO_RETURN_NOT_OK(PrepareBool(*residual, &ctx));

  std::vector<uint8_t> keep;  // empty until the first filter: all rows
  for (const auto& [column, spec] : scans) {
    DOPPIO_ASSIGN_OR_RETURN(std::vector<uint8_t> bits,
                            engine->EvalStringFilter(*column, *spec, stats));
    if (keep.empty()) {
      keep = std::move(bits);
      continue;
    }
    for (int64_t i = 0; i < n; ++i) {
      keep[static_cast<size_t>(i)] &= bits[static_cast<size_t>(i)];
    }
  }
  if (keep.empty()) keep.assign(static_cast<size_t>(n), 1);

  if (residual != nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      if (keep[static_cast<size_t>(i)] == 0) continue;
      keep[static_cast<size_t>(i)] = EvalBool(ctx, *residual, i) ? 1 : 0;
    }
  }

  // Branch-free: every row id is written, and the cursor advances past
  // the selected ones.
  std::vector<int64_t> selection(static_cast<size_t>(n));
  const uint8_t* flags = keep.data();
  int64_t* out = selection.data();
  size_t selected = 0;
  for (int64_t i = 0; i < n; ++i) {
    out[selected] = i;
    selected += flags[i] != 0 ? 1 : 0;
  }
  selection.resize(selected);
  return selection;
}

// ---------------------------------------------------------------------------
// Aggregation / projection

struct AggSpec {
  enum class Kind { kNone, kCountStar, kCount, kSum, kMin, kMax };
  Kind kind = Kind::kNone;
  int col = -1;          // input column (kNone: projected column)
  std::string out_name;
};

Result<std::vector<AggSpec>> ResolveItems(
    const SelectStmt& stmt, const Rel& rel,
    const std::vector<int>& group_cols) {
  std::vector<AggSpec> specs;
  for (const auto& item : stmt.items) {
    AggSpec spec;
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColumn) {
      int col = rel.Find(e.name);
      if (col < 0) {
        return Status::InvalidArgument("unknown column '" + e.name + "'");
      }
      if (!stmt.group_by.empty() &&
          std::find(group_cols.begin(), group_cols.end(), col) ==
              group_cols.end()) {
        return Status::InvalidArgument("column '" + e.name +
                                       "' is not in GROUP BY");
      }
      spec.kind = AggSpec::Kind::kNone;
      spec.col = col;
      spec.out_name = item.alias.empty() ? e.name : item.alias;
    } else if (e.kind == ExprKind::kFunc) {
      const std::string& fn = e.name;
      if (fn == "count" && e.args.size() == 1 &&
          e.args[0]->kind == ExprKind::kStar) {
        spec.kind = AggSpec::Kind::kCountStar;
      } else if ((fn == "count" || fn == "sum" || fn == "min" ||
                  fn == "max") &&
                 e.args.size() == 1 &&
                 e.args[0]->kind == ExprKind::kColumn) {
        int col = rel.Find(e.args[0]->name);
        if (col < 0) {
          return Status::InvalidArgument("unknown column '" +
                                         e.args[0]->name + "'");
        }
        if (fn != "count" && rel.IsString(col)) {
          return Status::InvalidArgument(fn + " over string column '" +
                                         e.args[0]->name + "'");
        }
        spec.col = col;
        if (fn == "count") spec.kind = AggSpec::Kind::kCount;
        if (fn == "sum") spec.kind = AggSpec::Kind::kSum;
        if (fn == "min") spec.kind = AggSpec::Kind::kMin;
        if (fn == "max") spec.kind = AggSpec::Kind::kMax;
      } else {
        return Status::NotImplemented("select expression: " + e.ToString());
      }
      spec.out_name = item.alias.empty() ? e.ToString() : item.alias;
    } else {
      return Status::NotImplemented("select expression: " + e.ToString());
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Encodes a group key (raw bytes, type-tagged per column).
void EncodeKey(const Rel& rel, const std::vector<int>& group_cols,
               int64_t row, std::string* out) {
  out->clear();
  for (int col : group_cols) {
    if (rel.IsNull(col, row)) {
      out->push_back('\2');
      continue;
    }
    if (rel.IsString(col)) {
      out->push_back('\1');
      std::string_view s = rel.GetString(col, row);
      uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s.data(), s.size());
    } else {
      out->push_back('\0');
      int64_t v = rel.GetInt(col, row);
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
    }
  }
}

struct GroupState {
  // Representative row for key columns.
  int64_t any_row = 0;
  std::vector<int64_t> accum;  // one per agg spec
  std::vector<uint8_t> seen;   // for min/max initialization
  int64_t first_index;         // insertion order
};

// Aggregates without GROUP BY. There is one implicit group, so no key is
// encoded or hashed: each item runs column-at-a-time over the selection.
// A bare column yields the first selected row's value; min and max over
// only NULLs yield 0. An empty selection still yields one row, every item
// 0 (count = 0).
void AggregateWithoutGroups(const std::vector<AggSpec>& specs, const Rel& rel,
                            const std::vector<int64_t>& selection,
                            ResultSet* out) {
  for (size_t c = 0; c < specs.size(); ++c) {
    const AggSpec& spec = specs[c];
    OwnedColumn& col = out->columns[c];
    if (selection.empty()) {
      col.ints.push_back(0);
      continue;
    }
    if (spec.kind == AggSpec::Kind::kNone) {
      if (col.is_string) {
        col.strings.emplace_back(rel.GetString(spec.col, selection.front()));
      } else {
        col.ints.push_back(rel.GetInt(spec.col, selection.front()));
      }
      continue;
    }
    if (spec.kind == AggSpec::Kind::kCountStar) {
      col.ints.push_back(static_cast<int64_t>(selection.size()));
      continue;
    }
    int64_t count = 0;  // non-NULL values seen
    int64_t acc = 0;
    for (int64_t row : selection) {
      if (rel.IsNull(spec.col, row)) continue;
      if (spec.kind != AggSpec::Kind::kCount) {
        const int64_t v = rel.GetInt(spec.col, row);
        if (spec.kind == AggSpec::Kind::kSum) {
          acc += v;
        } else if (count == 0) {
          acc = v;
        } else {
          acc = spec.kind == AggSpec::Kind::kMin ? std::min(acc, v)
                                                 : std::max(acc, v);
        }
      }
      ++count;
    }
    col.ints.push_back(spec.kind == AggSpec::Kind::kCount ? count : acc);
  }
}

// A statement's grouping columns and output items, resolved and
// type-checked against its relation before any row is read.
struct OutputSpec {
  std::vector<int> group_cols;
  std::vector<AggSpec> items;
};

Result<OutputSpec> ResolveOutput(const SelectStmt& stmt, const Rel& rel) {
  OutputSpec output;
  for (const auto& name : stmt.group_by) {
    int col = rel.Find(name);
    if (col < 0) {
      return Status::InvalidArgument("unknown GROUP BY column '" + name +
                                     "'");
    }
    output.group_cols.push_back(col);
  }
  DOPPIO_ASSIGN_OR_RETURN(output.items,
                          ResolveItems(stmt, rel, output.group_cols));
  return output;
}

ResultSet AggregateOrProject(const SelectStmt& stmt, const Rel& rel,
                             const OutputSpec& output,
                             const std::vector<int64_t>& selection) {
  const std::vector<int>& group_cols = output.group_cols;
  const std::vector<AggSpec>& specs = output.items;
  const bool has_aggregate =
      std::any_of(specs.begin(), specs.end(), [](const AggSpec& s) {
        return s.kind != AggSpec::Kind::kNone;
      });

  ResultSet out;
  for (const AggSpec& spec : specs) {
    OwnedColumn col;
    col.name = spec.out_name;
    col.is_string = spec.kind == AggSpec::Kind::kNone && spec.col >= 0 &&
                    rel.IsString(spec.col);
    out.columns.push_back(std::move(col));
  }

  if (!has_aggregate && stmt.group_by.empty()) {
    // Plain projection.
    for (int64_t row : selection) {
      for (size_t c = 0; c < specs.size(); ++c) {
        OwnedColumn& col = out.columns[c];
        if (col.is_string) {
          col.strings.emplace_back(rel.GetString(specs[c].col, row));
        } else {
          col.ints.push_back(rel.GetInt(specs[c].col, row));
        }
      }
    }
    return out;
  }

  if (stmt.group_by.empty()) {
    AggregateWithoutGroups(specs, rel, selection, &out);
    return out;
  }

  // Hash aggregation over the GROUP BY key.
  std::unordered_map<std::string, GroupState> groups;
  std::string key;
  for (int64_t row : selection) {
    EncodeKey(rel, group_cols, row, &key);
    auto [it, inserted] = groups.try_emplace(key);
    GroupState& g = it->second;
    if (inserted) {
      g.any_row = row;
      g.accum.assign(specs.size(), 0);
      g.seen.assign(specs.size(), 0);
      g.first_index = static_cast<int64_t>(groups.size());
    }
    for (size_t c = 0; c < specs.size(); ++c) {
      const AggSpec& spec = specs[c];
      switch (spec.kind) {
        case AggSpec::Kind::kNone:
          break;
        case AggSpec::Kind::kCountStar:
          ++g.accum[c];
          break;
        case AggSpec::Kind::kCount:
          if (!rel.IsNull(spec.col, row)) ++g.accum[c];
          break;
        case AggSpec::Kind::kSum:
          if (!rel.IsNull(spec.col, row)) {
            g.accum[c] += rel.GetInt(spec.col, row);
          }
          break;
        case AggSpec::Kind::kMin:
        case AggSpec::Kind::kMax:
          if (!rel.IsNull(spec.col, row)) {
            int64_t v = rel.GetInt(spec.col, row);
            if (g.seen[c] == 0) {
              g.accum[c] = v;
              g.seen[c] = 1;
            } else if (spec.kind == AggSpec::Kind::kMin) {
              g.accum[c] = std::min(g.accum[c], v);
            } else {
              g.accum[c] = std::max(g.accum[c], v);
            }
          }
          break;
      }
    }
  }

  // Emit groups in first-seen order (deterministic output).
  std::vector<const std::pair<const std::string, GroupState>*> ordered;
  ordered.reserve(groups.size());
  for (const auto& entry : groups) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) {
              return a->second.first_index < b->second.first_index;
            });

  for (const auto* entry : ordered) {
    const GroupState& g = entry->second;
    for (size_t c = 0; c < specs.size(); ++c) {
      const AggSpec& spec = specs[c];
      OwnedColumn& col = out.columns[c];
      if (spec.kind == AggSpec::Kind::kNone) {
        if (col.is_string) {
          col.strings.emplace_back(rel.GetString(spec.col, g.any_row));
        } else {
          col.ints.push_back(rel.GetInt(spec.col, g.any_row));
        }
      } else {
        col.ints.push_back(g.accum[c]);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Sort / limit

Status SortAndLimit(const SelectStmt& stmt, ResultSet* result) {
  if (!stmt.order_by.empty()) {
    std::vector<int> sort_cols;
    for (const auto& item : stmt.order_by) {
      const OwnedColumn* col = result->Find(item.column);
      if (col == nullptr) {
        return Status::InvalidArgument("unknown ORDER BY column '" +
                                       item.column + "'");
      }
      sort_cols.push_back(
          static_cast<int>(col - result->columns.data()));
    }
    std::vector<int64_t> perm(static_cast<size_t>(result->num_rows()));
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int64_t>(i);
    std::stable_sort(perm.begin(), perm.end(), [&](int64_t a, int64_t b) {
      for (size_t k = 0; k < sort_cols.size(); ++k) {
        const OwnedColumn& col =
            result->columns[static_cast<size_t>(sort_cols[k])];
        int cmp;
        if (col.is_string) {
          cmp = col.strings[static_cast<size_t>(a)].compare(
              col.strings[static_cast<size_t>(b)]);
        } else {
          int64_t va = col.ints[static_cast<size_t>(a)];
          int64_t vb = col.ints[static_cast<size_t>(b)];
          cmp = va < vb ? -1 : (va > vb ? 1 : 0);
        }
        if (stmt.order_by[k].descending) cmp = -cmp;
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    for (OwnedColumn& col : result->columns) {
      if (col.is_string) {
        std::vector<std::string> sorted(col.strings.size());
        for (size_t i = 0; i < perm.size(); ++i) {
          sorted[i] = std::move(col.strings[static_cast<size_t>(perm[i])]);
        }
        col.strings = std::move(sorted);
      } else {
        std::vector<int64_t> sorted(col.ints.size());
        for (size_t i = 0; i < perm.size(); ++i) {
          sorted[i] = col.ints[static_cast<size_t>(perm[i])];
        }
        col.ints = std::move(sorted);
      }
    }
  }
  if (stmt.limit >= 0 && result->num_rows() > stmt.limit) {
    for (OwnedColumn& col : result->columns) {
      if (col.is_string) {
        col.strings.resize(static_cast<size_t>(stmt.limit));
      } else {
        col.ints.resize(static_cast<size_t>(stmt.limit));
      }
      if (!col.valid.empty()) {
        col.valid.resize(static_cast<size_t>(stmt.limit));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FROM / JOIN resolution

Result<QueryOutcome> ExecuteStmtInternal(ColumnStoreEngine* engine,
                                         const SelectStmt& stmt);

Result<std::unique_ptr<Rel>> ResolveTableRef(ColumnStoreEngine* engine,
                                             const TableRef& ref,
                                             QueryStats* stats) {
  if (ref.subquery != nullptr) {
    DOPPIO_ASSIGN_OR_RETURN(QueryOutcome sub,
                            ExecuteStmtInternal(engine, *ref.subquery));
    stats->Accumulate(sub.stats);
    std::vector<std::string> names;
    for (size_t c = 0; c < sub.result.columns.size(); ++c) {
      if (c < ref.column_aliases.size()) {
        names.push_back(ref.column_aliases[c]);
      } else {
        names.push_back(sub.result.columns[c].name);
      }
    }
    return std::unique_ptr<Rel>(
        new ResultRel(std::move(sub.result), std::move(names)));
  }
  const Table* table = engine->catalog()->GetTable(ref.table_name);
  if (table == nullptr) {
    return Status::NotFound("no table '" + ref.table_name + "'");
  }
  return std::unique_ptr<Rel>(new TableRel(table));
}

/// Plans and executes one join clause against `left`.
Result<std::unique_ptr<Rel>> ExecuteJoin(ColumnStoreEngine* engine,
                                         std::unique_ptr<Rel> left,
                                         const JoinClause& join,
                                         QueryStats* stats) {
  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<Rel> right,
                          ResolveTableRef(engine, join.right, stats));

  // Decompose the ON clause: one left=right equality plus predicates that
  // reference only the right side (pushed below the join — legal for
  // LEFT OUTER because a right row failing them can never match).
  ExprPtr on = join.on == nullptr ? nullptr : join.on->Clone();
  std::vector<ExprPtr> conjuncts = SplitConjuncts(std::move(on));

  int left_key = -1;
  int right_key = -1;
  std::vector<ExprPtr> right_filters;
  for (auto& conjunct : conjuncts) {
    if (conjunct->kind == ExprKind::kBinary &&
        conjunct->op == BinOp::kEq &&
        conjunct->args[0]->kind == ExprKind::kColumn &&
        conjunct->args[1]->kind == ExprKind::kColumn) {
      const std::string& a = conjunct->args[0]->name;
      const std::string& b = conjunct->args[1]->name;
      int la = left->Find(a);
      int rb = right->Find(b);
      if (la >= 0 && rb >= 0) {
        left_key = la;
        right_key = rb;
        continue;
      }
      int lb = left->Find(b);
      int ra = right->Find(a);
      if (lb >= 0 && ra >= 0) {
        left_key = lb;
        right_key = ra;
        continue;
      }
      return Status::InvalidArgument("cannot resolve join keys: " +
                                     conjunct->ToString());
    }
    // Non-equality conjunct: must reference only right-side columns.
    std::vector<std::string> cols;
    conjunct->CollectColumns(&cols);
    for (const auto& c : cols) {
      if (right->Find(c) < 0) {
        return Status::NotImplemented(
            "ON predicate referencing the left side: " +
            conjunct->ToString());
      }
    }
    right_filters.push_back(std::move(conjunct));
  }
  if (left_key < 0) {
    return Status::NotImplemented("join without equality condition");
  }
  // The hash join compares integer keys.
  if (left->IsString(left_key) || right->IsString(right_key)) {
    return Status::InvalidArgument(
        "join keys must be integer columns: " +
        left->column_name(left_key) + " = " + right->column_name(right_key));
  }

  // Filter the right side.
  ExprPtr right_where;
  for (auto& f : right_filters) {
    right_where = right_where == nullptr
                      ? std::move(f)
                      : Expr::Binary(BinOp::kAnd, std::move(right_where),
                                     std::move(f));
  }
  DOPPIO_ASSIGN_OR_RETURN(PlannedFilter filter,
                          PlanWhere(std::move(right_where)));
  DOPPIO_ASSIGN_OR_RETURN(
      std::vector<int64_t> right_sel,
      ComputeSelection(engine, *right, std::move(filter), stats));

  // Build hash table on the right key.
  std::unordered_map<int64_t, std::vector<int64_t>> hash;
  hash.reserve(right_sel.size());
  for (int64_t r : right_sel) {
    if (right->IsNull(right_key, r)) continue;
    hash[right->GetInt(right_key, r)].push_back(r);
  }

  // Probe with the left side.
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  const bool outer = join.type == JoinType::kLeftOuter;
  for (int64_t l = 0; l < left->rows(); ++l) {
    auto it = left->IsNull(left_key, l)
                  ? hash.end()
                  : hash.find(left->GetInt(left_key, l));
    if (it == hash.end() || it->second.empty()) {
      if (outer) {
        left_rows.push_back(l);
        right_rows.push_back(-1);
      }
      continue;
    }
    for (int64_t r : it->second) {
      left_rows.push_back(l);
      right_rows.push_back(r);
    }
  }
  return std::unique_ptr<Rel>(new JoinRel(std::move(left), std::move(right),
                                          std::move(left_rows),
                                          std::move(right_rows)));
}

Result<QueryOutcome> ExecuteStmtInternal(ColumnStoreEngine* engine,
                                         const SelectStmt& stmt) {
  QueryOutcome outcome;
  // Every query starts from zeroed stats. QueryStats instances travel
  // through accumulating APIs (EvalStringFilter, CountWhere) that `+=`
  // into them; without this reset a caller-reused outcome would carry the
  // previous query's retry/fault/fallback counters and kernel fields over.
  outcome.stats.Reset();
  Stopwatch db_watch;

  DOPPIO_ASSIGN_OR_RETURN(std::unique_ptr<Rel> rel,
                          ResolveTableRef(engine, stmt.from, &outcome.stats));
  for (const JoinClause& join : stmt.joins) {
    DOPPIO_ASSIGN_OR_RETURN(
        rel, ExecuteJoin(engine, std::move(rel), join, &outcome.stats));
  }

  DOPPIO_ASSIGN_OR_RETURN(OutputSpec output, ResolveOutput(stmt, *rel));
  ExprPtr where = stmt.where == nullptr ? nullptr : stmt.where->Clone();
  DOPPIO_ASSIGN_OR_RETURN(PlannedFilter filter, PlanWhere(std::move(where)));
  DOPPIO_ASSIGN_OR_RETURN(
      std::vector<int64_t> selection,
      ComputeSelection(engine, *rel, std::move(filter), &outcome.stats));

  outcome.result = AggregateOrProject(stmt, *rel, output, selection);
  DOPPIO_RETURN_NOT_OK(SortAndLimit(stmt, &outcome.result));

  // Accounting: EvalStringFilter charged its own phases (software filters
  // into database_seconds, FPGA phases into udf/config/hal/hw). Everything
  // else this function did is database time; subtract the already-charged
  // wall portions so phases sum to the end-to-end wall time (with hw
  // counted as virtual time).
  double wall = db_watch.ElapsedSeconds();
  double charged = outcome.stats.database_seconds +
                   outcome.stats.udf_software_seconds +
                   outcome.stats.config_gen_seconds +
                   outcome.stats.hal_seconds +
                   outcome.stats.sim_host_seconds;
  double remainder = wall - charged;
  if (remainder > 0) outcome.stats.database_seconds += remainder;
  return outcome;
}

}  // namespace

Result<QueryOutcome> ExecuteStatement(ColumnStoreEngine* engine,
                                      const SelectStmt& stmt) {
  return ExecuteStmtInternal(engine, stmt);
}

Result<QueryOutcome> ExecuteQuery(ColumnStoreEngine* engine,
                                  std::string_view sql_text) {
  DOPPIO_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql_text));
  return ExecuteStatement(engine, stmt);
}

// ---------------------------------------------------------------------------
// EXPLAIN

namespace {

const char* FilterOpName(StringFilterSpec::Op op) {
  switch (op) {
    case StringFilterSpec::Op::kLike:
      return "like-scan";
    case StringFilterSpec::Op::kRegexpLike:
      return "scalar-regex";
    case StringFilterSpec::Op::kRegexpFpga:
      return "fpga-hudf";
    case StringFilterSpec::Op::kHybrid:
      return "hybrid-hudf";
    case StringFilterSpec::Op::kContains:
      return "inverted-index";
    case StringFilterSpec::Op::kAuto:
      return "cost-model-auto";
  }
  return "?";
}

void ExplainFilter(ExprPtr where, const std::string& pad,
                   std::string* out) {
  auto plan = PlanWhere(std::move(where));
  if (!plan.ok()) {
    *out += pad + "filter: <" + plan.status().ToString() + ">\n";
    return;
  }
  for (const auto& fast : plan->fast) {
    *out += pad + "filter [" + FilterOpName(fast.spec.op) + "] " +
            fast.column + (fast.spec.negated ? " !~ '" : " ~ '") +
            fast.spec.pattern + "'" +
            (fast.spec.case_insensitive ? " (case-insensitive)" : "") +
            "\n";
  }
  if (plan->residual != nullptr) {
    *out += pad + "filter [row-predicate] " + plan->residual->ToString() +
            "\n";
  }
}

Result<std::string> ExplainStmt(ColumnStoreEngine* engine,
                                const SelectStmt& stmt, int depth) {
  const std::string pad(static_cast<size_t>(depth) * 2, ' ');
  std::string out;

  // Select list.
  out += pad + "select ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += stmt.items[i].expr->ToString();
    if (!stmt.items[i].alias.empty()) out += " as " + stmt.items[i].alias;
  }
  out += "\n";

  // FROM.
  if (stmt.from.subquery != nullptr) {
    out += pad + "from derived table '" + stmt.from.alias + "':\n";
    DOPPIO_ASSIGN_OR_RETURN(
        std::string sub, ExplainStmt(engine, *stmt.from.subquery, depth + 1));
    out += sub;
  } else {
    Table* table = engine->catalog()->GetTable(stmt.from.table_name);
    out += pad + "from " + stmt.from.table_name;
    if (table != nullptr) {
      out += " (" + std::to_string(table->num_rows()) + " rows)";
    } else {
      out += " (NOT FOUND)";
    }
    out += "\n";
  }

  // Joins.
  for (const JoinClause& join : stmt.joins) {
    out += pad +
           (join.type == JoinType::kLeftOuter ? "left outer join "
                                              : "inner join ") +
           join.right.table_name;
    Table* right = engine->catalog()->GetTable(join.right.table_name);
    if (right != nullptr) {
      out += " (" + std::to_string(right->num_rows()) + " rows)";
    }
    out += "\n";
    if (join.on != nullptr) {
      auto conjuncts = SplitConjuncts(join.on->Clone());
      ExprPtr pushed;
      for (auto& c : conjuncts) {
        if (c->kind == ExprKind::kBinary && c->op == BinOp::kEq &&
            c->args[0]->kind == ExprKind::kColumn &&
            c->args[1]->kind == ExprKind::kColumn) {
          out += pad + "  hash-join key: " + c->ToString() + "\n";
        } else {
          pushed = pushed == nullptr
                       ? std::move(c)
                       : Expr::Binary(BinOp::kAnd, std::move(pushed),
                                      std::move(c));
        }
      }
      if (pushed != nullptr) {
        out += pad + "  pushed below join:\n";
        ExplainFilter(std::move(pushed), pad + "    ", &out);
      }
    }
  }

  // WHERE.
  if (stmt.where != nullptr) {
    ExplainFilter(stmt.where->Clone(), pad, &out);
  }

  // Group / order / limit.
  if (!stmt.group_by.empty()) {
    out += pad + "hash-aggregate by ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      out += (i > 0 ? ", " : "") + stmt.group_by[i];
    }
    out += "\n";
  }
  if (!stmt.order_by.empty()) {
    out += pad + "sort by ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      out += (i > 0 ? ", " : "") + stmt.order_by[i].column +
             (stmt.order_by[i].descending ? " desc" : " asc");
    }
    out += "\n";
  }
  if (stmt.limit >= 0) {
    out += pad + "limit " + std::to_string(stmt.limit) + "\n";
  }
  return out;
}

}  // namespace

Result<std::string> ExplainQuery(ColumnStoreEngine* engine,
                                 std::string_view sql_text) {
  DOPPIO_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql_text));
  return ExplainStmt(engine, stmt, 0);
}

}  // namespace sql
}  // namespace doppio
