#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "workload/tpch_generator.h"

namespace doppio {
namespace sql {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT count(*) FROM t WHERE a <> 0;");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("select"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("count"));
  EXPECT_TRUE((*tokens)[2].IsSymbol("("));
  EXPECT_TRUE((*tokens)[3].IsSymbol("*"));
  EXPECT_EQ((*tokens).back().kind, TokenKind::kEnd);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Tokenize("SELECT 'it''s' FROM t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[1].text, "it's");
}

TEST(LexerTest, StringPreservesCase) {
  auto tokens = Tokenize("SELECT '%Strasse%' FROM t");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "%Strasse%");
}

TEST(LexerTest, UnterminatedString) {
  EXPECT_FALSE(Tokenize("SELECT 'oops FROM t").ok());
}

TEST(LexerTest, OperatorVariants) {
  auto tokens = Tokenize("a <> b != c <= d >= e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[1].IsSymbol("<>"));
  EXPECT_TRUE((*tokens)[3].IsSymbol("<>"));  // != normalizes
  EXPECT_TRUE((*tokens)[5].IsSymbol("<="));
  EXPECT_TRUE((*tokens)[7].IsSymbol(">="));
}

TEST(ParserTest, SimpleCount) {
  auto stmt = ParseSelect(
      "SELECT count(*) FROM address_table WHERE address_string LIKE "
      "'%Strasse%';");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->from.table_name, "address_table");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, ExprKind::kLike);
  EXPECT_EQ(stmt->where->str_value, "%Strasse%");
}

TEST(ParserTest, RegexpFpgaComparison) {
  auto stmt = ParseSelect(
      "SELECT count(*) FROM t WHERE REGEXP_FPGA('Strasse', s) <> 0");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, ExprKind::kBinary);
  EXPECT_EQ(stmt->where->op, BinOp::kNe);
  EXPECT_EQ(stmt->where->args[0]->kind, ExprKind::kFunc);
  EXPECT_EQ(stmt->where->args[0]->name, "regexp_fpga");
}

TEST(ParserTest, NotLikeAndIlike) {
  auto stmt = ParseSelect(
      "SELECT count(*) FROM t WHERE a NOT LIKE '%x%' AND b ILIKE '%y%'");
  ASSERT_TRUE(stmt.ok());
  const Expr& where = *stmt->where;
  EXPECT_EQ(where.op, BinOp::kAnd);
  EXPECT_TRUE(where.args[0]->like_negated);
  EXPECT_FALSE(where.args[0]->like_case_insensitive);
  EXPECT_FALSE(where.args[1]->like_negated);
  EXPECT_TRUE(where.args[1]->like_case_insensitive);
}

TEST(ParserTest, TpchQ13Parses) {
  auto stmt = ParseSelect(TpchQ13Sql(false));
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 2u);
  EXPECT_EQ(stmt->items[1].alias, "custdist");
  ASSERT_NE(stmt->from.subquery, nullptr);
  EXPECT_EQ(stmt->from.alias, "c_orders");
  EXPECT_EQ(stmt->from.column_aliases,
            (std::vector<std::string>{"c_custkey", "c_count"}));
  const SelectStmt& inner = *stmt->from.subquery;
  ASSERT_EQ(inner.joins.size(), 1u);
  EXPECT_EQ(inner.joins[0].type, JoinType::kLeftOuter);
  EXPECT_EQ(inner.joins[0].right.table_name, "orders");
  EXPECT_EQ(inner.group_by, (std::vector<std::string>{"c_custkey"}));
  EXPECT_EQ(stmt->group_by, (std::vector<std::string>{"c_count"}));
  ASSERT_EQ(stmt->order_by.size(), 2u);
  EXPECT_EQ(stmt->order_by[0].column, "custdist");
  EXPECT_TRUE(stmt->order_by[0].descending);
}

TEST(ParserTest, GroupOrderLimit) {
  auto stmt = ParseSelect(
      "SELECT a, count(*) FROM t GROUP BY a ORDER BY a ASC LIMIT 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->limit, 5);
  EXPECT_FALSE(stmt->order_by[0].descending);
}

TEST(ParserTest, QualifiedColumns) {
  auto stmt = ParseSelect("SELECT t.a FROM t WHERE t.b = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items[0].expr->name, "a");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("count(*) FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT count(* FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE a LIKE 5").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage").ok());
}

// --- Planner ------------------------------------------------------------------

ExprPtr WhereOf(const std::string& sql_text) {
  auto stmt = ParseSelect(sql_text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  return std::move(stmt->where);
}

TEST(PlannerTest, RecognizesLike) {
  auto plan = PlanWhere(
      WhereOf("SELECT count(*) FROM t WHERE s LIKE '%Strasse%'"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fast.size(), 1u);
  EXPECT_EQ(plan->fast[0].column, "s");
  EXPECT_EQ(plan->fast[0].spec.op, StringFilterSpec::Op::kLike);
  EXPECT_EQ(plan->fast[0].spec.pattern, "%Strasse%");
  EXPECT_EQ(plan->residual, nullptr);
}

TEST(PlannerTest, RecognizesRegexpFpgaZeroComparison) {
  auto plan = PlanWhere(WhereOf(
      "SELECT count(*) FROM t WHERE REGEXP_FPGA('abc', s) <> 0"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fast.size(), 1u);
  EXPECT_EQ(plan->fast[0].spec.op, StringFilterSpec::Op::kRegexpFpga);
  EXPECT_FALSE(plan->fast[0].spec.negated);

  auto anti = PlanWhere(WhereOf(
      "SELECT count(*) FROM t WHERE REGEXP_FPGA('abc', s) = 0"));
  ASSERT_TRUE(anti.ok());
  ASSERT_EQ(anti->fast.size(), 1u);
  EXPECT_TRUE(anti->fast[0].spec.negated);
}

TEST(PlannerTest, RecognizesBothArgumentOrders) {
  // The paper writes both REGEXP_LIKE('pat', col) and
  // REGEXP_LIKE(col, 'pat').
  for (const char* sql_text :
       {"SELECT count(*) FROM t WHERE REGEXP_LIKE(s, 'abc')",
        "SELECT count(*) FROM t WHERE REGEXP_LIKE('abc', s)"}) {
    auto plan = PlanWhere(WhereOf(sql_text));
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->fast.size(), 1u) << sql_text;
    EXPECT_EQ(plan->fast[0].column, "s");
    EXPECT_EQ(plan->fast[0].spec.pattern, "abc");
  }
}

TEST(PlannerTest, NotWrapsToNegated) {
  auto plan = PlanWhere(WhereOf(
      "SELECT count(*) FROM t WHERE NOT REGEXP_LIKE(s, 'abc')"));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->fast.size(), 1u);
  EXPECT_TRUE(plan->fast[0].spec.negated);
}

TEST(PlannerTest, MixedConjunction) {
  auto plan = PlanWhere(WhereOf(
      "SELECT count(*) FROM t WHERE s LIKE '%a%' AND id < 100 AND "
      "CONTAINS(s, 'alan & turing')"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->fast.size(), 2u);
  ASSERT_NE(plan->residual, nullptr);  // id < 100 stays residual
  EXPECT_EQ(plan->residual->kind, ExprKind::kBinary);
}

TEST(PlannerTest, OrIsNotDecomposed) {
  auto plan = PlanWhere(WhereOf(
      "SELECT count(*) FROM t WHERE s LIKE '%a%' OR s LIKE '%b%'"));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->fast.empty());
  EXPECT_NE(plan->residual, nullptr);
}

TEST(ExpressionTest, SplitConjuncts) {
  auto where = WhereOf(
      "SELECT count(*) FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)");
  auto conjuncts = SplitConjuncts(std::move(where));
  EXPECT_EQ(conjuncts.size(), 3u);
}

TEST(ExpressionTest, CloneAndToString) {
  auto where = WhereOf(
      "SELECT count(*) FROM t WHERE NOT (a LIKE '%x%') AND b <> 0");
  ExprPtr copy = where->Clone();
  EXPECT_EQ(copy->ToString(), where->ToString());
}

}  // namespace
}  // namespace sql
}  // namespace doppio
