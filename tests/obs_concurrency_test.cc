// Concurrent stats aggregation (satellite of the tracing/metrics PR):
// multiple client threads drive traced HUDF queries through one device
// while scraper threads continuously export the metrics registry and the
// tracer. Runs under TSan in CI — the assertion here is "zero data races
// and every scraped document is valid JSON", not any particular value.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "db/hudf.h"
#include "hal/hal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace doppio {
namespace {

TEST(ObsConcurrencyTest, ScrapersRaceClientsWithoutCorruption) {
  obs::Tracer::Global().SetEnabled(true);

  Hal::Options options;
  options.shared_memory_bytes = 64 * kSharedPageBytes;  // 128 MiB
  options.functional_threads = 2;
  Hal hal(options);

  Bat input(ValueType::kString, hal.bat_allocator());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(input
                    .AppendString(i % 5 == 0 ? "Koblenzer Strasse 44"
                                             : "Koblenzer Gasse 44")
                    .ok());
  }

  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> bad_json{0};

  // Scrapers: a monitoring loop exporting every observability surface
  // while queries are in flight.
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::string metrics_json = obs::MetricsRegistry::Global().ToJson();
        std::string text = obs::MetricsRegistry::Global().ToJson();
        std::string trace_json = obs::Tracer::Global().ToChromeTraceJson();
        if (!obs::CheckJsonSyntax(metrics_json).ok()) bad_json.fetch_add(1);
        if (!obs::CheckJsonSyntax(trace_json).ok()) bad_json.fetch_add(1);
        if (text.empty()) bad_json.fetch_add(1);
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<int64_t> matched(kClients * kQueriesPerClient, -1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto out = RegexpFpgaPartitioned(&hal, input, "Strasse");
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        matched[static_cast<size_t>(c * kQueriesPerClient + q)] =
            out->stats.rows_matched;
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : scrapers) t.join();

  for (int64_t m : matched) EXPECT_EQ(m, 400);
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_EQ(bad_json.load(), 0);

  // Final quiescent exports are valid too.
  EXPECT_TRUE(
      obs::CheckJsonSyntax(obs::MetricsRegistry::Global().ToJson()).ok());
  EXPECT_TRUE(
      obs::CheckJsonSyntax(obs::Tracer::Global().ToChromeTraceJson()).ok());

  obs::Tracer::Global().SetEnabled(false);
  obs::Tracer::Global().Clear();
}

}  // namespace
}  // namespace doppio
