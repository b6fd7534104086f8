#include <gtest/gtest.h>

#include "sql/executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"
#include "workload/tpch_generator.h"

namespace doppio {
namespace {

using sql::ExecuteQuery;

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnStoreEngine::Options options;
    options.num_threads = 4;
    engine_ = std::make_unique<ColumnStoreEngine>(options);

    // Small handmade table for exact assertions.
    auto t = std::make_unique<Table>("people");
    auto id = std::make_unique<Bat>(ValueType::kInt32);
    auto name = std::make_unique<Bat>(ValueType::kString);
    auto age = std::make_unique<Bat>(ValueType::kInt32);
    const char* names[] = {"alice", "bob", "carol", "dave", "eve"};
    int ages[] = {30, 25, 30, 40, 25};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(id->AppendInt32(i).ok());
      ASSERT_TRUE(name->AppendString(names[i]).ok());
      ASSERT_TRUE(age->AppendInt32(ages[i]).ok());
    }
    ASSERT_TRUE(t->AddColumn("id", std::move(id)).ok());
    ASSERT_TRUE(t->AddColumn("name", std::move(name)).ok());
    ASSERT_TRUE(t->AddColumn("age", std::move(age)).ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(t)).ok());

    // The same columns, no rows.
    auto empty = std::make_unique<Table>("nobody");
    ASSERT_TRUE(
        empty->AddColumn("id", std::make_unique<Bat>(ValueType::kInt32)).ok());
    ASSERT_TRUE(
        empty->AddColumn("name", std::make_unique<Bat>(ValueType::kString))
            .ok());
    ASSERT_TRUE(
        empty->AddColumn("age", std::make_unique<Bat>(ValueType::kInt32))
            .ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(empty)).ok());
  }

  int64_t Scalar(const std::string& sql_text) {
    auto outcome = ExecuteQuery(engine_.get(), sql_text);
    EXPECT_TRUE(outcome.ok()) << sql_text << ": "
                              << outcome.status().ToString();
    if (!outcome.ok()) return -1;
    auto v = outcome->result.ScalarInt();
    EXPECT_TRUE(v.ok());
    return v.ok() ? *v : -1;
  }

  // The first result column of an integer projection.
  std::vector<int64_t> Ints(const std::string& sql_text) {
    auto outcome = ExecuteQuery(engine_.get(), sql_text);
    EXPECT_TRUE(outcome.ok()) << sql_text << ": "
                              << outcome.status().ToString();
    if (!outcome.ok() || outcome->result.num_columns() == 0) return {};
    return outcome->result.columns[0].ints;
  }

  std::unique_ptr<ColumnStoreEngine> engine_;
};

TEST_F(SqlExecutorTest, CountStar) {
  EXPECT_EQ(Scalar("SELECT count(*) FROM people"), 5);
}

TEST_F(SqlExecutorTest, CountWithLike) {
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE name LIKE '%a%'"), 3);
  EXPECT_EQ(
      Scalar("SELECT count(*) FROM people WHERE name NOT LIKE '%a%'"), 2);
}

TEST_F(SqlExecutorTest, CountWithComparison) {
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE age = 30"), 2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE age < 30"), 2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE age >= 30"), 3);
}

// Which rows a selection keeps, in row order, not only how many.
TEST_F(SqlExecutorTest, SelectsRowsByEqualityAndRange) {
  EXPECT_EQ(Ints("SELECT id FROM people WHERE age = 30"),
            (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(Ints("SELECT id FROM people WHERE age >= 25 AND age <= 30"),
            (std::vector<int64_t>{0, 1, 2, 4}));
  EXPECT_EQ(
      Scalar("SELECT count(*) FROM people WHERE age >= 25 AND age <= 30"), 4);
}

// Two string filters and a comparison: a row survives only if every one
// selects it.
TEST_F(SqlExecutorTest, ConjunctionKeepsRowsEveryFilterSelects) {
  EXPECT_EQ(Ints("SELECT id FROM people WHERE name LIKE '%a%' AND "
                 "name LIKE '%e%'"),
            (std::vector<int64_t>{0, 3}));  // alice, dave
  EXPECT_EQ(Ints("SELECT id FROM people WHERE name LIKE '%a%' AND "
                 "name LIKE '%e%' AND age = 40"),
            (std::vector<int64_t>{3}));
}

// A residual that stays whole (the OR keeps LIKE out of the fast path) is
// evaluated row by row, over a table and over a derived relation alike.
TEST_F(SqlExecutorTest, ResidualEvaluatesEachRow) {
  const std::string where =
      " WHERE id >= 1 AND (name LIKE '%o%' OR age = 40)";
  EXPECT_EQ(Ints("SELECT id FROM people" + where),
            (std::vector<int64_t>{1, 2, 3}));  // bob, carol, dave
  EXPECT_EQ(Ints("SELECT id FROM (SELECT id, name, age FROM people) AS d" +
                 where),
            (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(SqlExecutorTest, MixedPredicates) {
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE name LIKE '%a%' AND "
                   "age = 30"),
            2);
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE age = 25 OR age = 40"),
            3);
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE NOT (age = 25)"), 3);
}

TEST_F(SqlExecutorTest, RegexpLikePredicate) {
  // 'a' followed eventually by 'e': alice and dave.
  EXPECT_EQ(
      Scalar("SELECT count(*) FROM people WHERE REGEXP_LIKE(name, 'a.*e')"),
      2);
  EXPECT_EQ(
      Scalar("SELECT count(*) FROM people WHERE REGEXP_LIKE(name, '(bob|eve)')"),
      2);
}

TEST_F(SqlExecutorTest, Projection) {
  auto outcome =
      ExecuteQuery(engine_.get(), "SELECT name, age FROM people WHERE "
                                  "age = 25 ORDER BY name");
  ASSERT_TRUE(outcome.ok());
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_columns(), 2);
  ASSERT_EQ(rs.num_rows(), 2);
  EXPECT_EQ(rs.columns[0].strings[0], "bob");
  EXPECT_EQ(rs.columns[0].strings[1], "eve");
  EXPECT_EQ(rs.columns[1].ints[0], 25);
}

TEST_F(SqlExecutorTest, GroupByWithAggregates) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT age, count(*) AS n FROM people GROUP BY age ORDER BY age");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_rows(), 3);
  EXPECT_EQ(rs.columns[0].ints, (std::vector<int64_t>{25, 30, 40}));
  EXPECT_EQ(rs.columns[1].ints, (std::vector<int64_t>{2, 2, 1}));
}

// Without ORDER BY, groups come out in the order their first row appears.
TEST_F(SqlExecutorTest, GroupsEmitInFirstSeenOrder) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT age, count(*) AS n, min(id) AS first FROM people GROUP BY age");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_rows(), 3);
  EXPECT_EQ(rs.columns[0].ints, (std::vector<int64_t>{30, 25, 40}));
  EXPECT_EQ(rs.columns[1].ints, (std::vector<int64_t>{2, 2, 1}));
  EXPECT_EQ(rs.columns[2].ints, (std::vector<int64_t>{0, 1, 3}));
}

TEST_F(SqlExecutorTest, SumMinMax) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT sum(age) AS s, min(age) AS lo, max(age) AS hi FROM people");
  ASSERT_TRUE(outcome.ok());
  const ResultSet& rs = outcome->result;
  EXPECT_EQ(rs.columns[0].ints[0], 150);
  EXPECT_EQ(rs.columns[1].ints[0], 25);
  EXPECT_EQ(rs.columns[2].ints[0], 40);
}

TEST_F(SqlExecutorTest, OrderByDescAndLimit) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT name, age FROM people ORDER BY age DESC, name ASC LIMIT 2");
  ASSERT_TRUE(outcome.ok());
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_rows(), 2);
  EXPECT_EQ(rs.columns[0].strings[0], "dave");
  // age 30 tie broken by name: alice before carol.
  EXPECT_EQ(rs.columns[0].strings[1], "alice");
}

TEST_F(SqlExecutorTest, EmptyResultAggregates) {
  EXPECT_EQ(Scalar("SELECT count(*) FROM people WHERE age > 100"), 0);
}

// Aggregates without GROUP BY form one implicit group.
TEST_F(SqlExecutorTest, BareColumnBesideAggregateTakesFirstSelectedRow) {
  auto outcome = ExecuteQuery(
      engine_.get(), "SELECT name, count(*) AS n FROM people WHERE age = 30");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_rows(), 1);
  EXPECT_EQ(rs.columns[0].strings[0], "alice");
  EXPECT_EQ(rs.columns[1].ints[0], 2);

  outcome = ExecuteQuery(
      engine_.get(),
      "SELECT age, max(id) AS m FROM people WHERE name LIKE '%e%'");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->result.num_rows(), 1);
  EXPECT_EQ(outcome->result.columns[0].ints[0], 30);  // alice
  EXPECT_EQ(outcome->result.columns[1].ints[0], 4);   // eve
}

TEST_F(SqlExecutorTest, AggregatesOverAllRowsAndNoRows) {
  const std::string items =
      "SELECT count(*) AS n, count(age) AS c, sum(age) AS s, "
      "min(age) AS lo, max(age) AS hi FROM people WHERE ";
  auto all = ExecuteQuery(engine_.get(), items + "age > 0");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->result.num_rows(), 1);
  std::vector<int64_t> got;
  for (const OwnedColumn& col : all->result.columns) {
    got.push_back(col.ints.at(0));
  }
  EXPECT_EQ(got, (std::vector<int64_t>{5, 5, 150, 25, 40}));

  auto none = ExecuteQuery(engine_.get(), items + "age > 100");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  ASSERT_EQ(none->result.num_rows(), 1);
  got.clear();
  for (const OwnedColumn& col : none->result.columns) {
    got.push_back(col.ints.at(0));
  }
  EXPECT_EQ(got, (std::vector<int64_t>{0, 0, 0, 0, 0}));
}

TEST_F(SqlExecutorTest, ErrorsSurface) {
  EXPECT_FALSE(ExecuteQuery(engine_.get(), "SELECT count(*) FROM ghost").ok());
  EXPECT_FALSE(
      ExecuteQuery(engine_.get(), "SELECT ghost FROM people").ok());
  EXPECT_FALSE(ExecuteQuery(engine_.get(),
                            "SELECT name FROM people GROUP BY age")
                   .ok());
  // A residual's columns are resolved and type-checked before any row is
  // evaluated, whatever the rows: no row reaches `ghost` here, the table
  // is empty, or the first conjunct rejects every row.
  for (const char* bad : {
           "SELECT count(*) FROM people WHERE name LIKE '%zzz%' AND ghost = 1",
           "SELECT count(*) FROM nobody WHERE ghost = 1",
           "SELECT count(*) FROM people WHERE age = 99 AND ghost = 1",
           // A string column in an integer comparison.
           "SELECT count(*) FROM people WHERE name = 0",
           "SELECT count(*) FROM people WHERE name < 1",
           "SELECT count(*) FROM (SELECT name, age FROM people) AS d "
           "WHERE name = 0",
           // sum/min/max over a string column, and join keys that are not
           // both integer, over a table and a derived table.
           "SELECT sum(name) FROM people",
           "SELECT min(name) FROM people",
           "SELECT max(name) FROM people",
           "SELECT count(*) FROM people AS a JOIN people AS b "
           "ON a.name = b.id",
           "SELECT sum(name) FROM (SELECT name FROM people) AS d",
           "SELECT count(*) FROM (SELECT name FROM people) AS a "
           "JOIN people ON a.name = people.id",
       }) {
    auto outcome = ExecuteQuery(engine_.get(), bad);
    EXPECT_TRUE(outcome.status().IsInvalidArgument())
        << bad << " -> " << outcome.status().ToString();
  }
  // count and GROUP BY over a string column stay legal.
  EXPECT_EQ(Scalar("SELECT count(name) FROM people"), 5);
  EXPECT_TRUE(
      ExecuteQuery(engine_.get(),
                   "SELECT name, count(*) FROM people GROUP BY name")
          .ok());
}

// An unknown column fails the statement wherever the residual names it.
TEST_F(SqlExecutorTest, ResidualRejectsUnknownColumns) {
  for (const char* bad : {
           "SELECT count(*) FROM people WHERE 1 = ghost",
           "SELECT count(*) FROM people WHERE id = 1 OR ghost LIKE '%a%'",
           "SELECT count(*) FROM people WHERE id = 1 OR "
           "REGEXP_LIKE(ghost, 'a')",
           "SELECT count(*) FROM nobody WHERE NOT (id = 1 OR ghost = 2)",
           // `age` is not among the derived table's columns.
           "SELECT count(*) FROM (SELECT id, name FROM people) AS d "
           "WHERE id = 1 OR age = 30",
       }) {
    auto outcome = ExecuteQuery(engine_.get(), bad);
    EXPECT_TRUE(outcome.status().IsInvalidArgument())
        << bad << " -> " << outcome.status().ToString();
  }
}

// A column used against its type fails the statement, in either direction
// and wherever it sits, over a table or a derived relation.
TEST_F(SqlExecutorTest, PredicatesRejectColumnsOfTheWrongType) {
  for (const char* bad : {
           "SELECT count(*) FROM people WHERE 0 = name",
           "SELECT count(*) FROM people WHERE id = 1 OR NOT (name > 1)",
           "SELECT count(*) FROM people WHERE age LIKE '%3%'",
           "SELECT count(*) FROM people WHERE id = 1 OR age LIKE '%3%'",
           "SELECT count(*) FROM nobody WHERE id = 1 OR "
           "REGEXP_LIKE(age, '3')",
           "SELECT count(*) FROM (SELECT name, age FROM people) AS d "
           "WHERE name LIKE '%x%' OR age LIKE '%3%'",
       }) {
    auto outcome = ExecuteQuery(engine_.get(), bad);
    EXPECT_TRUE(outcome.status().IsInvalidArgument())
        << bad << " -> " << outcome.status().ToString();
  }
}

// Projection over a derived relation fetches its rows in that relation's
// order, through the selection.
TEST_F(SqlExecutorTest, ProjectionFetchesRowsInRelationOrder) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT name FROM (SELECT name, age FROM people "
      "ORDER BY age DESC, name ASC) AS d WHERE age >= 30");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->result.num_columns(), 1);
  EXPECT_EQ(outcome->result.columns[0].strings,
            (std::vector<std::string>{"dave", "alice", "carol"}));
}

TEST_F(SqlExecutorTest, DerivedTable) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT count(*) FROM (SELECT age, count(*) FROM people GROUP BY age) "
      "AS byage (age, n) WHERE n = 2");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto v = outcome->result.ScalarInt();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2);  // ages 25 and 30 both appear twice
}

TEST_F(SqlExecutorTest, StatsPopulated) {
  auto outcome = ExecuteQuery(
      engine_.get(), "SELECT count(*) FROM people WHERE name LIKE '%a%'");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->stats.rows_scanned, 5);
  EXPECT_EQ(outcome->stats.rows_matched, 3);
  EXPECT_GT(outcome->stats.TotalSeconds(), 0.0);
  EXPECT_EQ(outcome->stats.strategy, "like");
}

TEST_F(SqlExecutorTest, ExplainSimpleQuery) {
  auto plan = sql::ExplainQuery(
      engine_.get(),
      "SELECT count(*) FROM people WHERE name LIKE '%a%' AND age < 30");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("from people (5 rows)"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("[like-scan] name ~ '%a%'"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("[row-predicate] (age < 30)"), std::string::npos)
      << *plan;
}

TEST_F(SqlExecutorTest, ExplainFpgaAndHybridStrategies) {
  auto fpga = sql::ExplainQuery(
      engine_.get(),
      "SELECT count(*) FROM people WHERE REGEXP_FPGA('a.c', name) <> 0");
  ASSERT_TRUE(fpga.ok());
  EXPECT_NE(fpga->find("[fpga-hudf] name ~ 'a.c'"), std::string::npos)
      << *fpga;

  auto automatic = sql::ExplainQuery(
      engine_.get(),
      "SELECT count(*) FROM people WHERE REGEXP_AUTO('a.c', name) <> 0");
  ASSERT_TRUE(automatic.ok());
  EXPECT_NE(automatic->find("[cost-model-auto]"), std::string::npos)
      << *automatic;
}

// --- Joins (TPC-H Q13 machinery) ----------------------------------------------

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ColumnStoreEngine::Options options;
    options.num_threads = 2;
    engine_ = std::make_unique<ColumnStoreEngine>(options);

    auto customer = std::make_unique<Table>("customer");
    auto ckey = std::make_unique<Bat>(ValueType::kInt32);
    for (int i = 1; i <= 4; ++i) ASSERT_TRUE(ckey->AppendInt32(i).ok());
    ASSERT_TRUE(customer->AddColumn("c_custkey", std::move(ckey)).ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(customer)).ok());

    // customer 1: two orders (one special), 2: one special order,
    // 3: none, 4: one plain order.
    auto orders = std::make_unique<Table>("orders");
    auto okey = std::make_unique<Bat>(ValueType::kInt32);
    auto ocust = std::make_unique<Bat>(ValueType::kInt32);
    auto comment = std::make_unique<Bat>(ValueType::kString);
    struct Row {
      int key;
      int cust;
      const char* text;
    } rows[] = {
        {1, 1, "carefully packed"},
        {2, 1, "special handling requests"},
        {3, 2, "special fragile requests"},
        {4, 4, "plain order"},
    };
    for (const Row& r : rows) {
      ASSERT_TRUE(okey->AppendInt32(r.key).ok());
      ASSERT_TRUE(ocust->AppendInt32(r.cust).ok());
      ASSERT_TRUE(comment->AppendString(r.text).ok());
    }
    ASSERT_TRUE(orders->AddColumn("o_orderkey", std::move(okey)).ok());
    ASSERT_TRUE(orders->AddColumn("o_custkey", std::move(ocust)).ok());
    ASSERT_TRUE(orders->AddColumn("o_comment", std::move(comment)).ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(orders)).ok());
  }

  std::unique_ptr<ColumnStoreEngine> engine_;
};

TEST_F(JoinTest, LeftOuterJoinWithAntiPredicate) {
  // Non-special order counts: cust1 -> 1, cust2 -> 0, cust3 -> 0,
  // cust4 -> 1.
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT c_custkey, count(o_orderkey) AS n FROM customer "
      "LEFT OUTER JOIN orders ON c_custkey = o_custkey "
      "AND o_comment NOT LIKE '%special%requests%' "
      "GROUP BY c_custkey ORDER BY c_custkey");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  ASSERT_EQ(rs.num_rows(), 4);
  EXPECT_EQ(rs.columns[0].ints, (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(rs.columns[1].ints, (std::vector<int64_t>{1, 0, 0, 1}));
}

// The outer join leaves o_orderkey NULL for unmatched customers; the
// aggregates skip NULLs without a GROUP BY as they do with one.
TEST_F(JoinTest, AggregatesWithoutGroupBySkipNulls) {
  const std::string items =
      "SELECT count(*) AS n, count(o_orderkey) AS c, sum(o_orderkey) AS s, "
      "min(o_orderkey) AS lo, max(o_orderkey) AS hi FROM customer "
      "LEFT OUTER JOIN orders ON c_custkey = o_custkey ";
  auto values = [&](const std::string& sql_text) {
    auto outcome = ExecuteQuery(engine_.get(), sql_text);
    EXPECT_TRUE(outcome.ok()) << sql_text << ": "
                              << outcome.status().ToString();
    std::vector<int64_t> out;
    if (!outcome.ok()) return out;
    EXPECT_EQ(outcome->result.num_rows(), 1);
    for (const OwnedColumn& col : outcome->result.columns) {
      out.push_back(col.ints.at(0));
    }
    return out;
  };
  // Customer 3 has no order: five joined rows, four order keys.
  EXPECT_EQ(values(items), (std::vector<int64_t>{5, 4, 10, 1, 4}));
  // Without the special orders, customers 2 and 3 join NULL.
  EXPECT_EQ(values(items + "AND o_comment NOT LIKE '%special%requests%'"),
            (std::vector<int64_t>{4, 2, 5, 1, 4}));
  // Only NULLs: count 0, and sum, min and max read 0.
  EXPECT_EQ(values(items + "WHERE c_custkey = 3"),
            (std::vector<int64_t>{1, 0, 0, 0, 0}));
}

TEST_F(JoinTest, InnerJoinDropsUnmatched) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT count(*) FROM customer INNER JOIN orders ON "
      "c_custkey = o_custkey");
  ASSERT_TRUE(outcome.ok());
  auto v = outcome->result.ScalarInt();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 4);  // every order row pairs with its customer
}

// Duplicate keys on both sides: every matching (left, right) pair joins.
TEST_F(JoinTest, HashJoinPairsEveryMatchingRow) {
  auto side = [&](const char* table_name, const char* id_name,
                  const char* key_name, std::vector<int32_t> keys) {
    auto table = std::make_unique<Table>(table_name);
    auto id = std::make_unique<Bat>(ValueType::kInt32);
    auto key = std::make_unique<Bat>(ValueType::kInt32);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(id->AppendInt32(static_cast<int32_t>(i)).ok());
      ASSERT_TRUE(key->AppendInt32(keys[i]).ok());
    }
    ASSERT_TRUE(table->AddColumn(id_name, std::move(id)).ok());
    ASSERT_TRUE(table->AddColumn(key_name, std::move(key)).ok());
    ASSERT_TRUE(engine_->catalog()->AddTable(std::move(table)).ok());
  };
  side("lhs", "l_id", "l_key", {1, 2, 2, 3});
  side("rhs", "r_id", "r_key", {2, 3, 3, 4});

  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT l_id, r_id FROM lhs INNER JOIN rhs ON l_key = r_key "
      "ORDER BY l_id, r_id");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  // Key 2: left rows 1 and 2 with right row 0; key 3: left row 3 with
  // right rows 1 and 2.
  EXPECT_EQ(rs.columns[0].ints, (std::vector<int64_t>{1, 2, 3, 3}));
  EXPECT_EQ(rs.columns[1].ints, (std::vector<int64_t>{0, 0, 1, 2}));
}

TEST_F(JoinTest, FullQ13Shape) {
  auto outcome = ExecuteQuery(
      engine_.get(),
      "SELECT c_count, COUNT(*) AS custdist FROM ("
      "SELECT c_custkey, count(o_orderkey) FROM customer "
      "LEFT OUTER JOIN orders ON c_custkey = o_custkey "
      "AND o_comment NOT LIKE '%special%requests%' "
      "GROUP BY c_custkey) AS c_orders (c_custkey, c_count) "
      "GROUP BY c_count ORDER BY custdist DESC, c_count DESC");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ResultSet& rs = outcome->result;
  // c_count distribution: 1 -> 2 customers (1 and 4), 0 -> 2 customers.
  ASSERT_EQ(rs.num_rows(), 2);
  EXPECT_EQ(rs.columns[1].ints, (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(rs.columns[0].ints, (std::vector<int64_t>{1, 0}));
}

TEST_F(JoinTest, ExplainQ13ShowsJoinAndPushedFilter) {
  auto plan = sql::ExplainQuery(
      engine_.get(),
      "SELECT c_count, COUNT(*) AS custdist FROM ("
      "SELECT c_custkey, count(o_orderkey) FROM customer "
      "LEFT OUTER JOIN orders ON c_custkey = o_custkey "
      "AND o_comment NOT LIKE '%special%requests%' "
      "GROUP BY c_custkey) AS c_orders (c_custkey, c_count) "
      "GROUP BY c_count ORDER BY custdist DESC, c_count DESC");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("derived table 'c_orders'"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("left outer join orders"), std::string::npos);
  EXPECT_NE(plan->find("hash-join key: (c_custkey = o_custkey)"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("pushed below join"), std::string::npos);
  EXPECT_NE(plan->find("[like-scan] o_comment !~ '%special%requests%'"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("hash-aggregate by c_count"), std::string::npos);
  EXPECT_NE(plan->find("sort by custdist desc"), std::string::npos);
}

TEST(TpchQ13Test, RunsOnGeneratedData) {
  ColumnStoreEngine::Options options;
  options.num_threads = 4;
  ColumnStoreEngine engine(options);
  TpchOptions tpch;
  tpch.scale_factor = 0.01;  // 1500 customers, 15000 orders
  auto customer = GenerateCustomerTable(tpch);
  auto orders = GenerateOrdersTable(tpch);
  ASSERT_TRUE(customer.ok());
  ASSERT_TRUE(orders.ok());
  ASSERT_TRUE(engine.catalog()->AddTable(std::move(*customer)).ok());
  ASSERT_TRUE(engine.catalog()->AddTable(std::move(*orders)).ok());

  auto like = ExecuteQuery(&engine, TpchQ13Sql(false));
  ASSERT_TRUE(like.ok()) << like.status().ToString();
  EXPECT_GT(like->result.num_rows(), 1);

  // Sum of custdist must equal the number of customers.
  const OwnedColumn* custdist = like->result.Find("custdist");
  ASSERT_NE(custdist, nullptr);
  int64_t total = 0;
  for (int64_t v : custdist->ints) total += v;
  EXPECT_EQ(total, tpch.num_customers());

  // One third of customers place no orders (TPC-H rule): the c_count = 0
  // bucket is large.
  const OwnedColumn* c_count = like->result.Find("c_count");
  ASSERT_NE(c_count, nullptr);
  int64_t zero_bucket = 0;
  for (size_t i = 0; i < c_count->ints.size(); ++i) {
    if (c_count->ints[i] == 0) zero_bucket = custdist->ints[i];
  }
  EXPECT_GE(zero_bucket, tpch.num_customers() / 3);

  // ILIKE prunes at least as many orders as LIKE (case variants).
  auto ilike = ExecuteQuery(&engine, TpchQ13Sql(true));
  ASSERT_TRUE(ilike.ok());
  EXPECT_GT(ilike->result.num_rows(), 0);
}

}  // namespace
}  // namespace doppio
