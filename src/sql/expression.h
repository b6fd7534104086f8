// Expression AST of the SQL dialect.
//
// Covers what the paper's workloads need: comparisons, AND/OR/NOT,
// [NOT] LIKE / ILIKE, function predicates (REGEXP_LIKE, REGEXP_FPGA,
// REGEXP_HYBRID, CONTAINS), count(*) / count(col) aggregates, column
// references and literals.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace sql {

enum class ExprKind {
  kColumn,
  kIntLiteral,
  kStringLiteral,
  kStar,     // the '*' of count(*)
  kBinary,   // comparisons and AND/OR
  kNot,
  kLike,     // args[0] LIKE <pattern>
  kFunc,     // name(args...) — predicates and aggregates
};

enum class BinOp { kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;

  std::string name;        // kColumn / kFunc
  int64_t int_value = 0;   // kIntLiteral
  std::string str_value;   // kStringLiteral / kLike pattern
  BinOp op = BinOp::kEq;   // kBinary
  std::vector<ExprPtr> args;

  bool like_negated = false;         // kLike
  bool like_case_insensitive = false;  // kLike (ILIKE)

  static ExprPtr Column(std::string name);
  static ExprPtr Int(int64_t value);
  static ExprPtr Str(std::string value);
  static ExprPtr Star();
  static ExprPtr Binary(BinOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);
  static ExprPtr Like(ExprPtr column, std::string pattern, bool negated,
                      bool case_insensitive);
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);

  ExprPtr Clone() const;
  std::string ToString() const;

  /// Collects the column names referenced in this subtree.
  void CollectColumns(std::vector<std::string>* out) const;
};

/// Splits a boolean expression into its top-level AND conjuncts
/// (the expression tree is consumed).
std::vector<ExprPtr> SplitConjuncts(ExprPtr expr);

}  // namespace sql
}  // namespace doppio
