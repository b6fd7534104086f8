#include "sql/expression.h"

namespace doppio {
namespace sql {

ExprPtr Expr::Column(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::Int(int64_t value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kIntLiteral;
  e->int_value = value;
  return e;
}

ExprPtr Expr::Str(std::string value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStringLiteral;
  e->str_value = std::move(value);
  return e;
}

ExprPtr Expr::Star() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr Expr::Binary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNot;
  e->args.push_back(std::move(inner));
  return e;
}

ExprPtr Expr::Like(ExprPtr column, std::string pattern, bool negated,
                   bool case_insensitive) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLike;
  e->args.push_back(std::move(column));
  e->str_value = std::move(pattern);
  e->like_negated = negated;
  e->like_case_insensitive = case_insensitive;
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunc;
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->name = name;
  e->int_value = int_value;
  e->str_value = str_value;
  e->op = op;
  e->like_negated = like_negated;
  e->like_case_insensitive = like_case_insensitive;
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

namespace {
const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
  }
  return "?";
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumn:
      return name;
    case ExprKind::kIntLiteral:
      return std::to_string(int_value);
    case ExprKind::kStringLiteral:
      return "'" + str_value + "'";
    case ExprKind::kStar:
      return "*";
    case ExprKind::kBinary:
      return "(" + args[0]->ToString() + " " + BinOpName(op) + " " +
             args[1]->ToString() + ")";
    case ExprKind::kNot:
      return "(NOT " + args[0]->ToString() + ")";
    case ExprKind::kLike:
      return "(" + args[0]->ToString() +
             (like_negated ? " NOT" : "") +
             (like_case_insensitive ? " ILIKE '" : " LIKE '") + str_value +
             "')";
    case ExprKind::kFunc: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind == ExprKind::kColumn) out->push_back(name);
  for (const auto& a : args) a->CollectColumns(out);
}

std::vector<ExprPtr> SplitConjuncts(ExprPtr expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == ExprKind::kBinary && expr->op == BinOp::kAnd) {
    auto lhs = SplitConjuncts(std::move(expr->args[0]));
    auto rhs = SplitConjuncts(std::move(expr->args[1]));
    for (auto& e : lhs) out.push_back(std::move(e));
    for (auto& e : rhs) out.push_back(std::move(e));
    return out;
  }
  out.push_back(std::move(expr));
  return out;
}

}  // namespace sql
}  // namespace doppio
