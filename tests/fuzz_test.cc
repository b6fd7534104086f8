// Robustness fuzzing: random and mutated inputs must produce clean Status
// errors, never crashes, hangs or invalid states.
#include <gtest/gtest.h>

#include "bat/table.h"
#include "common/random.h"
#include "db/column_store.h"
#include "hw/config_compiler.h"
#include "hw/config_vector.h"
#include "regex/dfa_matcher.h"
#include "regex/like_translator.h"
#include "regex/pattern_parser.h"
#include "regex/token_extractor.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace doppio {
namespace {

TEST(FuzzTest, RandomBytesIntoPatternParser) {
  Rng rng(42);
  int parsed_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    size_t len = rng.NextBounded(24);
    std::string input;
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    }
    auto ast = ParsePattern(input);
    if (ast.ok()) {
      ++parsed_ok;
      // Whatever parsed must compile and execute without issue.
      auto matcher = DfaMatcher::Compile(input);
      if (matcher.ok()) {
        (void)(*matcher)->Find("John|Smith|44 Koblenzer Strasse");
      }
    } else {
      EXPECT_TRUE(ast.status().IsParseError() ||
                  ast.status().IsCapacityExceeded())
          << input << " -> " << ast.status().ToString();
    }
  }
  EXPECT_GT(parsed_ok, 100);  // plenty of random strings are valid regexes
}

TEST(FuzzTest, RandomMetaHeavyPatterns) {
  Rng rng(7);
  const std::string meta = R"(()[]{}|*+?.\-^09azAZ)";
  for (int i = 0; i < 3000; ++i) {
    std::string input = rng.FromAlphabet(meta, rng.NextBounded(16));
    auto ast = ParsePattern(input);
    if (!ast.ok()) continue;
    // Round-trip: rendering a parsed AST must re-parse.
    std::string rendered = (*ast)->ToString();
    auto reparsed = ParsePattern(rendered);
    EXPECT_TRUE(reparsed.ok()) << input << " -> " << rendered;
  }
}

TEST(FuzzTest, RandomLikePatterns) {
  Rng rng(9);
  const std::string alphabet = "ab%_\\xy";
  for (int i = 0; i < 3000; ++i) {
    std::string pattern = rng.FromAlphabet(alphabet, rng.NextBounded(12));
    auto like = TranslateLike(pattern);
    if (!like.ok()) {
      EXPECT_TRUE(like.status().IsParseError());
      continue;
    }
    auto reparse = ParsePattern(like->regex);
    EXPECT_TRUE(reparse.ok()) << pattern << " -> " << like->regex;
  }
}

TEST(FuzzTest, RandomBytesIntoConfigDecoder) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> bytes(rng.NextBounded(256));
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
    auto config = ConfigVector::FromBytes(bytes);
    // Virtually all random blobs must be rejected; none may crash.
    if (config.ok()) {
      auto nfa = config->Decode();
      EXPECT_TRUE(nfa.ok());
    }
  }
}

TEST(FuzzTest, TruncatedValidConfigs) {
  auto nfa = ExtractTokenNfa(R"((Strasse|Str\.).*(8[0-9]{4}))");
  ASSERT_TRUE(nfa.ok());
  auto encoded = ConfigVector::Encode(*nfa);
  ASSERT_TRUE(encoded.ok());
  const auto& bytes = encoded->bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    auto result = ConfigVector::FromBytes(truncated);
    // Shorter prefixes must be rejected (padding-only truncation at the
    // tail may still decode — that is fine).
    (void)result;
  }
}

TEST(FuzzTest, RandomBytesIntoSqlParser) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.NextBounded(48);
    std::string input;
    for (size_t k = 0; k < len; ++k) {
      input.push_back(static_cast<char>(rng.NextBounded(96) + 32));
    }
    auto stmt = sql::ParseSelect(input);
    if (!stmt.ok()) {
      EXPECT_TRUE(stmt.status().IsParseError()) << input;
    }
  }
}

TEST(FuzzTest, MutatedValidSql) {
  const std::string base =
      "SELECT count(*) FROM address_table WHERE address_string LIKE "
      "'%Strasse%' AND id < 100;";
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = base;
    int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBounded(mutated.size());
      switch (rng.NextBounded(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBounded(96) + 32);
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         static_cast<char>(rng.NextBounded(96) + 32));
          break;
      }
      if (mutated.empty()) break;
    }
    (void)sql::ParseSelect(mutated);  // must not crash
  }
}

// Random WHERE clauses: AND/OR/NOT over comparisons, LIKE and
// REGEXP_LIKE, naming columns the relation has, columns it lacks, and
// columns of the wrong type. Patterns come from a benign list, so no
// backtracking budget is ever hit. SELECT lists and join conditions draw
// from the same columns.
class WhereGenerator {
 public:
  explicit WhereGenerator(Rng* rng) : rng_(rng) {}

  // count(*), or one or two of count/sum/min/max over a column.
  std::string Items() {
    if (rng_->Bernoulli(0.5)) return "count(*)";
    std::string items = Aggregate();
    if (rng_->Bernoulli(0.3)) items += ", " + Aggregate();
    return items;
  }

  // An inner or left outer join with a table aliased j, on an equality of
  // two columns: the text before the table's name and the text after it.
  std::pair<std::string, std::string> Join() {
    std::string kind = rng_->Bernoulli(0.5) ? " JOIN " : " LEFT OUTER JOIN ";
    return {std::move(kind),
            " AS j ON " + Pick(kColumns) + " = j." + Pick(kColumns)};
  }

  std::string Predicate(int depth) {
    switch (rng_->NextBounded(depth > 0 ? 6 : 3)) {
      case 0:
        return Operand() + " " + Pick(kOps) + " " + Operand();
      case 1:
        return Pick(kColumns) +
               (rng_->Bernoulli(0.3) ? " NOT LIKE '" : " LIKE '") +
               Pick(kLikePatterns) + "'";
      case 2:
        return "REGEXP_LIKE(" + Pick(kColumns) + ", '" + Pick(kRegexps) + "')";
      case 3:
        return "(" + Predicate(depth - 1) + " AND " + Predicate(depth - 1) +
               ")";
      case 4:
        return "(" + Predicate(depth - 1) + " OR " + Predicate(depth - 1) +
               ")";
      default:
        return "NOT (" + Predicate(depth - 1) + ")";
    }
  }

 private:
  static constexpr const char* kColumns[] = {"id", "age", "name", "city",
                                             "ghost"};
  static constexpr const char* kAggregates[] = {"count", "sum", "min", "max"};
  static constexpr const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
  static constexpr const char* kLikePatterns[] = {"%a%", "b%", "%e", "_o%",
                                                  "%", "%ar%y%"};
  static constexpr const char* kRegexps[] = {"a", "^b", "e$", "[a-c]o",
                                             "(al|ev)", "o+"};

  template <size_t N>
  std::string Pick(const char* const (&items)[N]) {
    return items[rng_->NextBounded(N)];
  }
  std::string Aggregate() {
    return Pick(kAggregates) + "(" + Pick(kColumns) + ")";
  }
  std::string Operand() {
    switch (rng_->NextBounded(4)) {
      case 0:
        return std::to_string(rng_->NextBounded(50));
      case 1:
        return "'x'";
      default:
        return Pick(kColumns);
    }
  }

  Rng* rng_;
};

std::unique_ptr<Table> PeopleTable(const std::string& name, int rows) {
  const char* names[] = {"alice", "bob", "carol", "dave", "eve"};
  const char* cities[] = {"bern", "oslo", "rome"};
  auto table = std::make_unique<Table>(name);
  auto id = std::make_unique<Bat>(ValueType::kInt32);
  auto age = std::make_unique<Bat>(ValueType::kInt64);
  auto who = std::make_unique<Bat>(ValueType::kString);
  auto city = std::make_unique<Bat>(ValueType::kString);
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(id->AppendInt32(i).ok());
    EXPECT_TRUE(age->AppendInt64(20 + (i * 7) % 30).ok());
    EXPECT_TRUE(who->AppendString(names[i % 5]).ok());
    EXPECT_TRUE(city->AppendString(cities[i % 3]).ok());
  }
  EXPECT_TRUE(table->AddColumn("id", std::move(id)).ok());
  EXPECT_TRUE(table->AddColumn("age", std::move(age)).ok());
  EXPECT_TRUE(table->AddColumn("name", std::move(who)).ok());
  EXPECT_TRUE(table->AddColumn("city", std::move(city)).ok());
  return table;
}

TEST(FuzzTest, WhereClauseValidityDoesNotDependOnData) {
  ColumnStoreEngine::Options options;
  options.num_threads = 1;
  ColumnStoreEngine engine(options);
  ASSERT_TRUE(engine.catalog()->AddTable(PeopleTable("full", 40)).ok());
  ASSERT_TRUE(engine.catalog()->AddTable(PeopleTable("empty", 0)).ok());

  Rng rng(19);
  WhereGenerator gen(&rng);
  int ok_statements = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string items = gen.Items();
    const std::string where = gen.Predicate(3);
    // The derived table keeps two of the four columns; some statements
    // join it with the table.
    const bool derived = rng.Bernoulli(0.5);
    const bool joined = derived && rng.Bernoulli(0.4);
    std::pair<std::string, std::string> join;
    if (joined) join = gen.Join();
    auto statement = [&](const std::string& table) {
      std::string from = table;
      if (derived) {
        from = "(SELECT name, age FROM " + table + ") AS d";
        if (joined) from += join.first + table + join.second;
      }
      return "SELECT " + items + " FROM " + from + " WHERE " + where;
    };
    auto full = sql::ExecuteQuery(&engine, statement("full"));
    auto empty = sql::ExecuteQuery(&engine, statement("empty"));
    for (const auto* outcome : {&full, &empty}) {
      const Status& st = outcome->status();
      EXPECT_TRUE(st.ok() || st.IsInvalidArgument() || st.IsParseError() ||
                  st.code() == StatusCode::kNotImplemented)
          << statement("full") << " -> " << st.ToString();
    }
    EXPECT_EQ(full.ok(), empty.ok())
        << statement("full") << " -> " << full.status().ToString() << " vs "
        << empty.status().ToString();
    ok_statements += full.ok() ? 1 : 0;
  }
  // Both outcomes are well represented.
  EXPECT_GT(ok_statements, 300);
  EXPECT_LT(ok_statements, 2700);
}

TEST(FuzzTest, ExtractorNeverProducesInvalidNfa) {
  Rng rng(17);
  const std::string alphabet = "ab(|)*+?.[]-09{}";
  for (int i = 0; i < 3000; ++i) {
    std::string pattern = rng.FromAlphabet(alphabet, rng.NextBounded(14));
    auto ast = ParsePattern(pattern);
    if (!ast.ok()) continue;
    auto nfa = ExtractTokenNfa(**ast);
    if (nfa.ok()) {
      EXPECT_TRUE(nfa->Validate().ok()) << pattern;
      // And the config round-trips.
      auto encoded = ConfigVector::Encode(*nfa);
      ASSERT_TRUE(encoded.ok()) << pattern;
      EXPECT_TRUE(encoded->Decode().ok()) << pattern;
    }
  }
}

}  // namespace
}  // namespace doppio
