// hudf_sql — the paper's path. One closed-loop client runs SQL
// count(*) queries through sql::ParseSelect + sql::ExecuteStatement on a
// resident address table, one simulated device, no scheduler, no caches.
// Every query compiles its own configuration, so the sched and store
// layers are bypassed: host time is mostly the simulator's functional pass
// and hybrid post-processing, service time mostly modeled device time.
// REGEXP_LIKE and CONTAINS are left out: their baselines (per-tuple
// backtracking, an index build) dominate any run they appear in.
#include <cinttypes>
#include <cstdio>

#include "common/stopwatch.h"
#include "db/column_store.h"
#include "harness.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "support.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace perfbench {
namespace {

using doppio::EvalQuery;
using doppio::QueryEngineVariant;
using doppio::Status;

// Far from the CPU/FPGA break-even at this size: REGEXP_AUTO's cost model
// predicts the device (or hybrid) an order of magnitude below REGEXP_LIKE.
constexpr int64_t kRows = 20'000;
constexpr int kFunctionalThreads = 1;

struct Statement {
  std::string sql;
  std::string pattern;  // regex-dialect pattern the oracle scans
  int64_t expected = 0;
};

class HudfSql : public Workload {
 public:
  explicit HudfSql(const Args& args) : args_(args) {}

  Status Setup() override {
    doppio::Hal::Options hal_options;
    hal_options.shared_memory_bytes = int64_t{128} << 20;
    hal_options.functional_threads = kFunctionalThreads;
    hal_ = std::make_unique<doppio::Hal>(hal_options);
    doppio::ColumnStoreEngine::Options options;
    options.num_threads = 1;
    options.sequential_pipe = true;
    options.hal = hal_.get();
    engine_ = std::make_unique<doppio::ColumnStoreEngine>(options);

    doppio::AddressDataOptions data;
    data.num_records = kRows;
    data.seed = args_.seed;
    DOPPIO_ASSIGN_OR_RETURN(
        auto table,
        doppio::GenerateAddressTable(data, "address_table",
                                     engine_->allocator()));
    DOPPIO_RETURN_NOT_OK(engine_->catalog()->AddTable(std::move(table)));
    const doppio::Bat* column = engine_->catalog()
                                    ->GetTable("address_table")
                                    ->GetColumn("address_string");

    auto add = [&](std::string sql, EvalQuery query) {
      statements_.push_back({std::move(sql), doppio::QueryPattern(query), 0});
    };
    auto regexp_auto = [](EvalQuery query) {
      return "SELECT count(*) FROM address_table WHERE REGEXP_AUTO("
             "address_string, '" +
             doppio::QueryPattern(query) + "');";
    };
    for (EvalQuery q : {EvalQuery::kQ1, EvalQuery::kQ2, EvalQuery::kQ3,
                        EvalQuery::kQ4}) {
      add(doppio::QuerySql(q, QueryEngineVariant::kFpga), q);
    }
    // QH needs 28 character matchers, more than one PU holds: the hybrid
    // plan runs the Q2 prefix on the device and the rest on the CPU.
    add(doppio::QuerySql(EvalQuery::kQH, QueryEngineVariant::kHybrid),
        EvalQuery::kQH);
    add(regexp_auto(EvalQuery::kQ3), EvalQuery::kQ3);
    add(regexp_auto(EvalQuery::kQH), EvalQuery::kQH);
    add("SELECT count(*) FROM address_table WHERE address_string LIKE '" +
            doppio::Q1LikePattern() + "';",
        EvalQuery::kQ1);

    for (Statement& s : statements_) {
      DOPPIO_ASSIGN_OR_RETURN(std::vector<int16_t> expected,
                              ExpectedMatches(*column, s.pattern));
      for (int16_t v : expected) s.expected += v != 0 ? 1 : 0;
    }
    if (args_.inject_wrong_expected) statements_[0].expected += 1;

    // Warm-up: every statement once (calibrates REGEXP_AUTO's cost model,
    // faults in the arena pages the result BATs use).
    for (const Statement& s : statements_) {
      auto outcome = doppio::sql::ExecuteQuery(engine_.get(), s.sql);
      if (!outcome.ok()) return outcome.status();
    }
    return Status::OK();
  }

  void BeginTimed() override {
    rng_ = doppio::Rng(args_.seed * 7919 + 1);
    mix_ = ZipfRounds(statements_.size(), /*exponent=*/0,
                      static_cast<int>(statements_.size()));
    begin_ = PoolSnapshot::Take(hal_.get());
    ledger_ = PhaseLedger();
    parse_s_ = execute_s_ = 0;
    arena_peak_ = hal_->arena()->allocated_bytes();
  }

  void Step(int64_t, SpanLog* spans, StepOutcome* out) override {
    // The mix is exact: each round runs every statement once, in a
    // seeded order.
    const Statement& s = statements_[mix_.Next(&rng_)];
    ++out->attempted;
    doppio::Stopwatch op_watch;
    doppio::Stopwatch watch;
    auto stmt = spans->Call(Layer::kSql, "ParseSelect", [&] {
      return doppio::sql::ParseSelect(s.sql);
    });
    parse_s_ += watch.ElapsedSeconds();
    if (!stmt.ok()) {
      ++out->failed;
      return;
    }
    watch.Restart();
    auto outcome = spans->Call(Layer::kSql, "ExecuteStatement", [&] {
      return doppio::sql::ExecuteStatement(engine_.get(), *stmt);
    });
    execute_s_ += watch.ElapsedSeconds();
    out->host_s.push_back(op_watch.ElapsedSeconds());
    if (!outcome.ok()) {
      ++out->failed;
      return;
    }
    out->service_s.push_back(ServiceSeconds(outcome->stats));
    ledger_.Add(outcome->stats);
    auto count = outcome->result.ScalarInt();
    if (!count.ok() || *count != s.expected) {
      ++out->failed;
      divergent_ += count.ok() ? std::llabs(*count - s.expected) : kRows;
    }
    arena_peak_ = std::max(arena_peak_, hal_->arena()->allocated_bytes());
  }

  int64_t divergent_rows() const override { return divergent_; }

  std::map<std::string, int64_t> Fingerprint() const override {
    std::map<std::string, int64_t> fp;
    fp["queries"] = ledger_.queries;
    fp["hw_picos"] = ledger_.hw_picos;
    fp["device_picos"] =
        begin_.DevicePicosUntil(PoolSnapshot::Take(hal_.get()));
    for (const auto& [strategy, count] : ledger_.strategies) {
      fp["strategy." + strategy] = count;
    }
    return fp;
  }

  double DeviceSecondsSinceBegin() const override {
    return static_cast<double>(
               begin_.DevicePicosUntil(PoolSnapshot::Take(hal_.get()))) /
           1e12;
  }

  int64_t queries() const override { return ledger_.queries; }

  void EmitLayers(MetricValues* out) const override {
    const double n = static_cast<double>(std::max<int64_t>(ledger_.queries, 1));
    (*out)["sql.parse_us"] = parse_s_ / n * 1e6;
    (*out)["sql.execute_ms"] = execute_s_ / n * 1e3;
    ledger_.Emit(out);
    begin_.EmitUntilNow(hal_.get(), out);
    (*out)["mem.arena_peak_bytes"] = static_cast<double>(arena_peak_);
  }

  std::string ThreadSummary() const override {
    return "threads: client=1 functional=" +
           std::to_string(kFunctionalThreads) + " cpu_pool=0 devices=1 rows=" +
           std::to_string(kRows);
  }

 private:
  Args args_;
  std::unique_ptr<doppio::Hal> hal_;
  std::unique_ptr<doppio::ColumnStoreEngine> engine_;
  std::vector<Statement> statements_;
  doppio::Rng rng_{1};
  ZipfRounds mix_{1, 0, 1};
  PoolSnapshot begin_;
  PhaseLedger ledger_;
  double parse_s_ = 0;
  double execute_s_ = 0;
  int64_t divergent_ = 0;
  int64_t arena_peak_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeHudfSql(const Args& args) {
  return std::make_unique<HudfSql>(args);
}

}  // namespace perfbench
