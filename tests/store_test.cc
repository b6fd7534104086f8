// Out-of-core paged column segments (docs/STORAGE.md, ROADMAP item 4):
// segment seal/read roundtrips, pager LRU + pin safety under eviction,
// budget exhaustion, segment-granular ingest visibility, and the
// double-buffered streaming executor's bit-identity with the resident
// scan — including saturation values straddling segment boundaries,
// multi-device pools, overlap on/off, per-segment result-cache reuse,
// and the engine-level segmented column API.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/column_store.h"
#include "db/hudf.h"
#include "db/hybrid_executor.h"
#include "hal/hal.h"
#include "mem/arena.h"
#include "obs/metrics.h"
#include "sched/result_cache.h"
#include "store/pager.h"
#include "store/segment.h"
#include "store/segmented_column.h"
#include "store/stream_executor.h"
#include "workload/address_generator.h"
#include "workload/queries.h"

namespace doppio {
namespace {

Hal::Options TestHal(int num_devices = 1) {
  Hal::Options options;
  options.shared_memory_bytes = 256 * kSharedPageBytes;
  options.functional_threads = 1;
  options.num_devices = num_devices;
  return options;
}

std::string RowString(int i) {
  switch (i % 4) {
    case 0: return "7 Berner Strasse|61234";
    case 1: return "12 Berner Gasse|61234";
    case 2: return "1 Haupt Strasse|99999";
    default: return "no address at all";
  }
}

/// Expected result column from the resident partitioned path.
std::vector<int16_t> ResidentResult(Hal* hal, const std::vector<std::string>& rows,
                                    const std::string& pattern) {
  Bat input(ValueType::kString, hal->bat_allocator());
  for (const std::string& row : rows) {
    EXPECT_TRUE(input.AppendString(row).ok());
  }
  auto config = hal->CompileConfig(pattern);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  auto out = RegexpFpgaPartitionedPooled(hal, input, *config);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  std::vector<int16_t> values(rows.size());
  for (int64_t i = 0; i < input.count(); ++i) {
    values[static_cast<size_t>(i)] = out->result->GetInt16(i);
  }
  return values;
}

/// Builds a segmented column over `rows`, sealed so everything is visible.
std::unique_ptr<SegmentedColumn> BuildSegmented(
    Pager* pager, const std::vector<std::string>& rows,
    int64_t segment_target_bytes) {
  auto column = std::make_unique<SegmentedColumn>(pager, segment_target_bytes);
  for (const std::string& row : rows) {
    EXPECT_TRUE(column->Append(row).ok());
  }
  EXPECT_TRUE(column->Seal().ok());
  return column;
}

// --- Segment ---------------------------------------------------------------

TEST(SegmentTest, OffsetsSpanIsCacheLinePadded) {
  EXPECT_EQ(SegmentOffsetsSpanBytes(0), 0);
  EXPECT_EQ(SegmentOffsetsSpanBytes(1), 64);
  EXPECT_EQ(SegmentOffsetsSpanBytes(16), 64);
  EXPECT_EQ(SegmentOffsetsSpanBytes(17), 128);
}

TEST(SegmentTest, SealRoundtripReadsBackEveryString) {
  Segment segment(AcquireColumnId());
  std::vector<std::string> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(RowString(i));
  for (const std::string& row : rows) {
    ASSERT_TRUE(segment.Append(row).ok());
  }
  EXPECT_FALSE(segment.sealed());
  auto payload = segment.Seal();
  ASSERT_TRUE(payload.ok());
  EXPECT_TRUE(segment.sealed());
  EXPECT_EQ(segment.rows(), 100);
  EXPECT_EQ(static_cast<int64_t>(payload->size()), segment.payload_bytes());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Segment::GetString(payload->data(), 100, i), rows[i])
        << "row " << i;
  }
  // Sealed segments refuse further staging.
  EXPECT_FALSE(segment.Append("late").ok());
  EXPECT_FALSE(segment.Seal().ok());
}

// --- Pager -----------------------------------------------------------------

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    arena_ = std::make_unique<SharedArena>(64 * kSharedPageBytes);
  }

  /// Adopts a fresh one-page sealed segment holding `rows` short strings.
  std::shared_ptr<Segment> AdoptSegment(Pager* pager, int rows = 32) {
    auto segment = std::make_shared<Segment>(AcquireColumnId());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(segment->Append(RowString(i)).ok());
    }
    auto payload = segment->Seal();
    EXPECT_TRUE(payload.ok());
    EXPECT_TRUE(pager->AdoptSealed(segment.get(), *payload).ok());
    return segment;
  }

  std::unique_ptr<SharedArena> arena_;
};

TEST_F(PagerTest, PinPagesInUnpinnedLruIsEvictedFirst) {
  PagerOptions options;
  options.budget_bytes = 2 * kSharedPageBytes;  // two one-page segments
  Pager pager(arena_.get(), options);
  auto a = AdoptSegment(&pager);
  auto b = AdoptSegment(&pager);
  auto c = AdoptSegment(&pager);

  auto pin_a = pager.Pin(a.get());
  ASSERT_TRUE(pin_a.ok());
  EXPECT_TRUE(pin_a->paged_in);
  EXPECT_EQ(pin_a->rows, 32);
  // The view reads back the adopted strings.
  EXPECT_EQ(Segment::GetString(pin_a->offsets, pin_a->rows, 0), RowString(0));
  pager.Unpin(a.get());

  auto pin_b = pager.Pin(b.get());
  ASSERT_TRUE(pin_b.ok());
  pager.Unpin(b.get());
  EXPECT_EQ(pager.resident_bytes(), 2 * kSharedPageBytes);

  // Budget full: pinning C evicts the LRU (A). B stays resident.
  ASSERT_TRUE(pager.Pin(c.get()).ok());
  pager.Unpin(c.get());
  auto again_b = pager.Pin(b.get());
  ASSERT_TRUE(again_b.ok());
  EXPECT_FALSE(again_b->paged_in);  // still resident: pin hit
  pager.Unpin(b.get());
  auto again_a = pager.Pin(a.get());
  ASSERT_TRUE(again_a.ok());
  EXPECT_TRUE(again_a->paged_in);  // was evicted, came back from spill
  // Eviction never corrupts: the reloaded payload is intact.
  EXPECT_EQ(Segment::GetString(again_a->offsets, again_a->rows, 3),
            RowString(3));
  pager.Unpin(a.get());
}

TEST_F(PagerTest, PinnedSegmentsAreNeverEvicted) {
  PagerOptions options;
  options.budget_bytes = 2 * kSharedPageBytes;
  Pager pager(arena_.get(), options);
  auto a = AdoptSegment(&pager);
  auto b = AdoptSegment(&pager);
  auto c = AdoptSegment(&pager);

  auto pin_a = pager.Pin(a.get());
  ASSERT_TRUE(pin_a.ok());
  auto pin_b = pager.Pin(b.get());
  ASSERT_TRUE(pin_b.ok());

  // Everything resident is pinned: a third pin must fail typed, not evict
  // memory a query is actively scanning.
  auto pin_c = pager.Pin(c.get());
  ASSERT_FALSE(pin_c.ok());
  EXPECT_TRUE(pin_c.status().IsResourceExhausted())
      << pin_c.status().ToString();

  // The pinned views are still valid after the failed attempt.
  EXPECT_EQ(Segment::GetString(pin_a->offsets, pin_a->rows, 1), RowString(1));
  pager.Unpin(a.get());
  // With A unpinned, C fits.
  ASSERT_TRUE(pager.Pin(c.get()).ok());
  pager.Unpin(b.get());
  pager.Unpin(c.get());
}

TEST_F(PagerTest, OversizedSegmentAndForeignSegmentAreRejected) {
  PagerOptions options;
  options.budget_bytes = kSharedPageBytes;
  Pager pager(arena_.get(), options);

  // A payload larger than the whole budget can never be pinned.
  auto big = std::make_shared<Segment>(AcquireColumnId());
  const std::string filler(4096, 'x');
  while (big->payload_bytes() < 2 * kSharedPageBytes) {
    ASSERT_TRUE(big->Append(filler).ok());
  }
  auto payload = big->Seal();
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(pager.AdoptSealed(big.get(), *payload).ok());
  auto pin = pager.Pin(big.get());
  ASSERT_FALSE(pin.ok());
  EXPECT_TRUE(pin.status().IsResourceExhausted());

  // A segment never adopted by this pager is refused, as is an open one.
  Segment foreign(AcquireColumnId());
  ASSERT_TRUE(foreign.Append("x").ok());
  EXPECT_FALSE(pager.Pin(&foreign).ok());
}

TEST_F(PagerTest, DropCleanFreesUnpinnedResidents) {
  Pager pager(arena_.get(), PagerOptions{});
  auto a = AdoptSegment(&pager);
  auto b = AdoptSegment(&pager);
  ASSERT_TRUE(pager.Pin(a.get()).ok());
  ASSERT_TRUE(pager.Pin(b.get()).ok());
  pager.Unpin(b.get());
  pager.DropClean();
  // A stays (pinned), B was dropped.
  EXPECT_EQ(pager.resident_bytes(), kSharedPageBytes);
  pager.Unpin(a.get());
}

TEST_F(PagerTest, ColumnDestroyedBeforePagerReturnsItsPages) {
  // The engine declares its pager before its columns, so columns (and
  // their segments) die first: a resident segment must hand its pages
  // back and leave the pager, whose destructor then never reads it.
  Pager pager(arena_.get(), PagerOptions{});
  const int64_t before = arena_->allocated_bytes();
  {
    SegmentedColumn column(&pager);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(column.Append(RowString(i)).ok());
    }
    ASSERT_TRUE(column.Seal().ok());
    Segment* segment = column.Snapshot().segments.at(0).get();
    ASSERT_TRUE(pager.Pin(segment).ok());
    pager.Unpin(segment);
    EXPECT_EQ(pager.resident_bytes(), kSharedPageBytes);
    EXPECT_GT(arena_->allocated_bytes(), before);
  }
  EXPECT_EQ(pager.resident_bytes(), 0);
  EXPECT_EQ(arena_->allocated_bytes(), before);
}

TEST_F(PagerTest, SegmentOutlivingItsPagerIsSafe) {
  std::shared_ptr<Segment> survivor;
  const int64_t before = arena_->allocated_bytes();
  {
    Pager pager(arena_.get(), PagerOptions{});
    survivor = AdoptSegment(&pager);
    ASSERT_TRUE(pager.Pin(survivor.get()).ok());
    pager.Unpin(survivor.get());
  }
  EXPECT_EQ(arena_->allocated_bytes(), before);
  survivor.reset();  // must not reach the destroyed pager
}

// --- SegmentedColumn: ingest visibility ------------------------------------

TEST_F(PagerTest, StagedRowsAreInvisibleUntilSeal) {
  Pager pager(arena_.get(), PagerOptions{});
  SegmentedColumn column(&pager);  // 2 MiB target: no auto-seal here
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(column.Append(RowString(i)).ok());
  }
  EXPECT_EQ(column.sealed_rows(), 0);
  EXPECT_EQ(column.staged_rows(), 100);
  EXPECT_EQ(column.Snapshot().rows, 0);
  EXPECT_EQ(column.version(), 1u);

  ASSERT_TRUE(column.Seal().ok());
  EXPECT_EQ(column.sealed_rows(), 100);
  EXPECT_EQ(column.staged_rows(), 0);
  EXPECT_EQ(column.version(), 2u);

  // A snapshot taken now is immune to later appends: the sealed chain it
  // holds is immutable.
  SegmentSnapshot snapshot = column.Snapshot();
  EXPECT_EQ(snapshot.rows, 100);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(column.Append("later row").ok());
  }
  ASSERT_TRUE(column.Seal().ok());
  EXPECT_EQ(snapshot.rows, 100);
  EXPECT_EQ(column.Snapshot().rows, 150);
}

TEST_F(PagerTest, AutoSealsAtSegmentTarget) {
  Pager pager(arena_.get(), PagerOptions{});
  // Tiny target: a handful of rows per segment.
  SegmentedColumn column(&pager, /*segment_target_bytes=*/512);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(column.Append(RowString(i)).ok());
  }
  ASSERT_TRUE(column.Seal().ok());
  SegmentSnapshot snapshot = column.Snapshot();
  EXPECT_EQ(snapshot.rows, 64);
  EXPECT_GT(snapshot.segments.size(), 2u);
  // Chain order preserves append order, and ids are distinct.
  int64_t total = 0;
  for (size_t s = 0; s + 1 < snapshot.segments.size(); ++s) {
    EXPECT_NE(snapshot.segments[s]->id(), snapshot.segments[s + 1]->id());
  }
  for (const auto& segment : snapshot.segments) total += segment->rows();
  EXPECT_EQ(total, 64);
}

// --- Streaming execution ---------------------------------------------------

class StreamTest : public ::testing::Test {
 protected:
  std::vector<std::string> MakeRows(int n) {
    std::vector<std::string> rows;
    rows.reserve(n);
    for (int i = 0; i < n; ++i) rows.push_back(RowString(i));
    return rows;
  }
};

TEST_F(StreamTest, StreamedMatchesResidentBitIdentical) {
  for (int devices : {1, 2, 4}) {
    Hal hal(TestHal(devices));
    const std::vector<std::string> rows = MakeRows(4096);
    const std::vector<int16_t> expected =
        ResidentResult(&hal, rows, "Strasse");

    PagerOptions popts;
    popts.budget_bytes = 8 * kSharedPageBytes;
    Pager pager(hal.arena(), popts);
    // ~16 KiB segments: dozens of windows.
    auto column = BuildSegmented(&pager, rows, 16 * 1024);
    SegmentSnapshot snapshot = column->Snapshot();
    ASSERT_EQ(snapshot.rows, 4096);
    ASSERT_GE(snapshot.segments.size(), 2u);

    auto config = hal.CompileConfig("Strasse");
    ASSERT_TRUE(config.ok());
    for (bool overlap : {false, true}) {
      StreamOptions sopts;
      sopts.overlap = overlap;
      auto out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, sopts);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out->result->count(), snapshot.rows);
      for (int64_t i = 0; i < snapshot.rows; ++i) {
        ASSERT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
            << "devices=" << devices << " overlap=" << overlap << " row "
            << i;
      }
      EXPECT_EQ(out->stats.windows_streamed,
                static_cast<int32_t>(snapshot.segments.size()));
      EXPECT_EQ(out->stats.strategy, "fpga-streamed");
      pager.DropClean();
    }
  }
}

TEST_F(StreamTest, ExceedingArenaBudgetStillCompletesBitIdentical) {
  Hal hal(TestHal());
  const std::vector<std::string> rows = MakeRows(4096);
  const std::vector<int16_t> expected = ResidentResult(&hal, rows, "Berner");

  // Budget of TWO pages for a column of many one-page-minimum segments:
  // the whole scan runs out-of-core, paging every window.
  PagerOptions popts;
  popts.budget_bytes = 2 * kSharedPageBytes;
  Pager pager(hal.arena(), popts);
  auto column = BuildSegmented(&pager, rows, 16 * 1024);
  SegmentSnapshot snapshot = column->Snapshot();
  const int64_t total_payload = [&] {
    int64_t sum = 0;
    for (const auto& segment : snapshot.segments) {
      sum += segment->payload_bytes();
    }
    return sum;
  }();
  ASSERT_GT(static_cast<int64_t>(snapshot.segments.size()) * kSharedPageBytes,
            popts.budget_bytes);

  auto config = hal.CompileConfig("Berner");
  ASSERT_TRUE(config.ok());
  auto out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (int64_t i = 0; i < snapshot.rows; ++i) {
    ASSERT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
        << "row " << i;
  }
  EXPECT_GT(out->stats.page_in_seconds, 0.0);
  EXPECT_LE(pager.resident_bytes(), popts.budget_bytes);
  EXPECT_GE(pager.spill_bytes(), total_payload);
}

TEST_F(StreamTest, SaturationAtSegmentBoundaries) {
  // Match-end saturation (65535) is a per-string property; stitching
  // windows must neither lose it nor invent it. Place strings whose match
  // ends at 65534 (exact), 65535 (saturated) and 65536 (saturated) as the
  // last row of one segment and the first row of the next.
  auto long_row = [](int match_end) {
    // "END" last char lands exactly at 1-based position match_end.
    return std::string(static_cast<size_t>(match_end) - 3, '.') + "END";
  };
  std::vector<std::string> rows;
  for (int i = 0; i < 8; ++i) rows.push_back("filler END " + RowString(i));
  const size_t boundary_first = rows.size();
  rows.push_back(long_row(65534));
  rows.push_back(long_row(65535));
  rows.push_back(long_row(65536));
  for (int i = 0; i < 8; ++i) rows.push_back("more END filler");

  for (int devices : {1, 2, 4}) {
    Hal hal(TestHal(devices));
    const std::vector<int16_t> expected = ResidentResult(&hal, rows, "END");

    PagerOptions popts;
    popts.budget_bytes = 4 * kSharedPageBytes;
    Pager pager(hal.arena(), popts);
    // Seal manually so each long row sits exactly at a segment boundary:
    // [filler..., 65534-row] [65535-row] [65536-row, filler...]
    auto column = std::make_unique<SegmentedColumn>(&pager);
    for (size_t i = 0; i <= boundary_first; ++i) {
      ASSERT_TRUE(column->Append(rows[i]).ok());
    }
    ASSERT_TRUE(column->Seal().ok());
    ASSERT_TRUE(column->Append(rows[boundary_first + 1]).ok());
    ASSERT_TRUE(column->Seal().ok());
    for (size_t i = boundary_first + 2; i < rows.size(); ++i) {
      ASSERT_TRUE(column->Append(rows[i]).ok());
    }
    ASSERT_TRUE(column->Seal().ok());

    SegmentSnapshot snapshot = column->Snapshot();
    ASSERT_EQ(snapshot.segments.size(), 3u);
    auto config = hal.CompileConfig("END");
    ASSERT_TRUE(config.ok());
    auto out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    for (int64_t i = 0; i < snapshot.rows; ++i) {
      ASSERT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
          << "devices=" << devices << " row " << i;
    }
    // The saturation triplet behaves exactly like the resident scan:
    // 65534 exact, 65535 and beyond saturated.
    const auto at = [&](size_t i) {
      return static_cast<uint16_t>(
          out->result->GetInt16(static_cast<int64_t>(i)));
    };
    EXPECT_EQ(at(boundary_first), 65534);
    EXPECT_EQ(at(boundary_first + 1), 65535);
    EXPECT_EQ(at(boundary_first + 2), 65535);
  }
}

TEST_F(StreamTest, OverlapBeatsSerialPaging) {
  Hal hal(TestHal());
  const std::vector<std::string> rows = MakeRows(8192);
  PagerOptions popts;
  popts.budget_bytes = 4 * kSharedPageBytes;
  Pager pager(hal.arena(), popts);
  auto column = BuildSegmented(&pager, rows, 32 * 1024);
  SegmentSnapshot snapshot = column->Snapshot();
  ASSERT_GE(snapshot.segments.size(), 2u);
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  StreamOptions serial;
  serial.overlap = false;
  auto cold = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, serial);
  ASSERT_TRUE(cold.ok());
  ASSERT_GT(cold->stats.page_in_seconds, 0.0);

  pager.DropClean();  // make the overlapped run equally cold
  StreamOptions overlapped;
  overlapped.overlap = true;
  auto warm = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, overlapped);
  ASSERT_TRUE(warm.ok());
  ASSERT_GT(warm->stats.page_in_seconds, 0.0);

  // Same windows, same modeled transfers, same measured executions — the
  // double-buffer stitch must be strictly faster with >= 2 windows.
  EXPECT_LT(warm->stats.hw_seconds, cold->stats.hw_seconds);
}

TEST_F(StreamTest, PerSegmentCacheSkipsHitWindows) {
  Hal hal(TestHal());
  const std::vector<std::string> rows = MakeRows(2048);
  Pager pager(hal.arena(), PagerOptions{});
  auto column = BuildSegmented(&pager, rows, 16 * 1024);
  SegmentSnapshot snapshot = column->Snapshot();
  const auto segments = static_cast<int64_t>(snapshot.segments.size());
  ASSERT_GE(segments, 2);

  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());
  sched::ResultCache cache(8 << 20);
  StreamOptions sopts;
  sopts.result_cache = &cache;

  auto cold = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, sopts);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.windows_streamed, static_cast<int32_t>(segments));
  EXPECT_EQ(cache.size(), segments);  // one block per sealed segment

  auto warm = RegexpFpgaStreamed(&hal, &pager, snapshot, *config, sopts);
  ASSERT_TRUE(warm.ok());
  // Every window was served from its segment's cached block: nothing
  // scanned, no device time, bit-identical column.
  EXPECT_EQ(warm->stats.windows_streamed, 0);
  EXPECT_EQ(warm->stats.hw_seconds, 0.0);
  EXPECT_EQ(cache.hits(), segments);
  for (int64_t i = 0; i < snapshot.rows; ++i) {
    ASSERT_EQ(warm->result->GetInt16(i), cold->result->GetInt16(i))
        << "row " << i;
  }

  // Cached blocks survive column growth: new segments scan, old ones hit.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(column->Append(RowString(i)).ok());
  }
  ASSERT_TRUE(column->Seal().ok());
  SegmentSnapshot grown = column->Snapshot();
  ASSERT_GT(grown.segments.size(), snapshot.segments.size());
  auto after = RegexpFpgaStreamed(&hal, &pager, grown, *config, sopts);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.windows_streamed,
            static_cast<int32_t>(grown.segments.size() -
                                 snapshot.segments.size()));
}

TEST_F(StreamTest, SubmitFailuresDegradeAndCountFallbackRows) {
  // Every slice is refused at submit: the windows degrade to the host,
  // stay bit-identical, and their rows reach doppio.db.fallback_rows
  // exactly as a resident scan's do.
  Hal::Options options = TestHal();
  options.device.faults.enabled = true;
  options.device.faults.submit_failure_rate = 1.0;
  Hal hal(options);
  const std::vector<std::string> rows = MakeRows(1024);
  const std::vector<int16_t> expected = ResidentResult(&hal, rows, "Strasse");

  Pager pager(hal.arena(), PagerOptions{});
  auto column = BuildSegmented(&pager, rows, 16 * 1024);
  SegmentSnapshot snapshot = column->Snapshot();
  ASSERT_GE(snapshot.segments.size(), 2u);
  auto config = hal.CompileConfig("Strasse");
  ASSERT_TRUE(config.ok());

  const obs::Counter& fallback_rows =
      *obs::MetricsRegistry::Global().GetCounter("doppio.db.fallback_rows");
  const int64_t before = fallback_rows.Value();
  auto out = RegexpFpgaStreamed(&hal, &pager, snapshot, *config);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->stats.fallback_rows, snapshot.rows);
  EXPECT_EQ(out->stats.strategy, "fpga-streamed+sw_fallback");
  EXPECT_EQ(fallback_rows.Value() - before, out->stats.fallback_rows);
  for (int64_t i = 0; i < snapshot.rows; ++i) {
    ASSERT_EQ(out->result->GetInt16(i), expected[static_cast<size_t>(i)])
        << "row " << i;
  }
}

// --- Engine integration ----------------------------------------------------

TEST(SegmentedEngineTest, EvalSegmentedMatchesResidentEval) {
  Hal hal(TestHal(2));
  ColumnStoreEngine::Options options;
  options.num_threads = 4;
  options.hal = &hal;
  options.segment_target_bytes = 16 * 1024;
  options.pager_budget_bytes = 8 * kSharedPageBytes;
  ColumnStoreEngine engine(options);

  ASSERT_TRUE(engine.CreateSegmentedColumn("t", "addr").ok());
  EXPECT_EQ(engine.CreateSegmentedColumn("t", "addr").code(),
            StatusCode::kAlreadyExists);
  ASSERT_EQ(engine.segmented_column("t", "missing"), nullptr);

  std::vector<std::string> rows;
  for (int i = 0; i < 3000; ++i) rows.push_back(RowString(i));
  auto version = engine.AppendToSegmented("t", "addr", rows, /*seal=*/true);
  ASSERT_TRUE(version.ok());
  EXPECT_GT(*version, 1u);

  // Resident twin for the expected bits.
  Bat resident(ValueType::kString, hal.bat_allocator());
  for (const std::string& row : rows) {
    ASSERT_TRUE(resident.AppendString(row).ok());
  }
  StringFilterSpec spec;
  spec.op = StringFilterSpec::Op::kRegexpFpga;
  spec.pattern = "Strasse";
  auto expected = engine.EvalStringFilter(resident, spec, nullptr);
  ASSERT_TRUE(expected.ok());

  QueryStats stats;
  auto got = engine.EvalSegmentedFilter("t", "addr", spec, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *expected);
  EXPECT_GT(stats.windows_streamed, 1);
  EXPECT_EQ(stats.rows_scanned, static_cast<int64_t>(rows.size()));
  EXPECT_EQ(stats.strategy, "fpga-streamed");

  // Negation applies on top of the streamed scan.
  spec.negated = true;
  auto negated = engine.EvalSegmentedFilter("t", "addr", spec, nullptr);
  ASSERT_TRUE(negated.ok());
  int64_t total = 0;
  for (size_t i = 0; i < got->size(); ++i) {
    total += (*got)[i] + (*negated)[i];
  }
  EXPECT_EQ(total, static_cast<int64_t>(rows.size()));
  spec.negated = false;

  // Software ops do not stream.
  StringFilterSpec like;
  like.op = StringFilterSpec::Op::kLike;
  like.pattern = "%Strasse%";
  EXPECT_TRUE(
      engine.EvalSegmentedFilter("t", "addr", like, nullptr).status()
          .IsInvalidArgument());

  // Staged rows stay invisible until their segment seals.
  auto before = engine.segmented_column("t", "addr")->sealed_rows();
  ASSERT_TRUE(engine
                  .AppendToSegmented("t", "addr",
                                     {"one more Strasse row"},
                                     /*seal=*/false)
                  .ok());
  auto bits = engine.EvalSegmentedFilter("t", "addr", spec, nullptr);
  ASSERT_TRUE(bits.ok());
  EXPECT_EQ(static_cast<int64_t>(bits->size()), before);
}

TEST(SegmentedEngineTest, AColdPatternsScanKeepsTheHotPatternsBlocks) {
  // The engine cache holds two patterns' blocks over the column, not
  // three. After a hot pattern's repeats, a cold pattern's scan would
  // evict the hot blocks under plain LRU; admission refuses its blocks
  // instead, so the hot repeat streams no window.
  Hal hal(TestHal());
  sched::ResultCache cache(16'000);
  ColumnStoreEngine::Options options;
  options.num_threads = 1;
  options.hal = &hal;
  options.result_cache = &cache;
  options.segment_target_bytes = 16 * 1024;
  ColumnStoreEngine engine(options);
  ASSERT_TRUE(engine.CreateSegmentedColumn("t", "addr").ok());
  std::vector<std::string> rows;
  for (int i = 0; i < 3000; ++i) rows.push_back(RowString(i));
  ASSERT_TRUE(engine.AppendToSegmented("t", "addr", rows, /*seal=*/true).ok());
  const SegmentSnapshot snapshot =
      engine.segmented_column("t", "addr")->Snapshot();
  const auto windows = static_cast<int64_t>(snapshot.segments.size());
  ASSERT_GE(windows, 2);
  int64_t pattern_bytes = 0;  // one pattern's blocks over every window
  for (const auto& segment : snapshot.segments) {
    sched::CachedResultBlock block;
    block.values.resize(static_cast<size_t>(segment->rows()));
    pattern_bytes += block.bytes();
  }
  ASSERT_LE(2 * pattern_bytes, cache.max_bytes());
  ASSERT_GT(3 * pattern_bytes, cache.max_bytes());

  Bat resident(ValueType::kString, hal.bat_allocator());
  for (const std::string& row : rows) {
    ASSERT_TRUE(resident.AppendString(row).ok());
  }
  auto scan = [&](const std::string& pattern, const std::string& label) {
    StringFilterSpec spec;
    spec.op = StringFilterSpec::Op::kRegexpFpga;
    spec.pattern = pattern;
    auto expected = engine.EvalStringFilter(resident, spec, nullptr);
    EXPECT_TRUE(expected.ok()) << label;
    QueryStats stats;
    auto got = engine.EvalSegmentedFilter("t", "addr", spec, &stats);
    EXPECT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    if (expected.ok() && got.ok()) {
      EXPECT_EQ(*got, *expected) << label;
    }
    return stats.windows_streamed;
  };
  EXPECT_EQ(scan("Strasse", "hot, cold"), windows);
  EXPECT_EQ(scan("Strasse", "hot, repeat 1"), 0);
  EXPECT_EQ(scan("Strasse", "hot, repeat 2"), 0);
  EXPECT_EQ(scan("Gasse", "warm"), windows);  // fills the budget
  EXPECT_EQ(cache.evictions(), 0);
  // The cold blocks that do not fit the budget's slack are refused.
  EXPECT_EQ(scan("Haupt", "cold"), windows);
  EXPECT_GT(cache.admission_rejects(), 0);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(scan("Strasse", "hot, after the cold scan"), 0);
  EXPECT_EQ(scan("Gasse", "warm, after the cold scan"), 0);
}

// --- Split plans over segmented columns ------------------------------------
//
// QH needs 28 character matchers and the default device holds 24, so
// REGEXP_HYBRID and REGEXP_AUTO split it: each window streams the Q2
// prefix and resumes its candidates with the plan's continuation.

/// Generated addresses, 30% of which match QH and 20% only its Q2
/// prefix (candidates the suffix rejects), then rows no prefix matches,
/// so the last segments carry no candidates.
std::vector<std::string> SplitRows() {
  AddressDataOptions data;
  data.num_records = 600;
  data.selectivity = 0;
  data.q2_selectivity = 0.2;
  data.qh_selectivity = 0.3;
  auto table = GenerateAddressTable(data, "addr");
  EXPECT_TRUE(table.ok());
  std::vector<std::string> rows;
  const Bat* src = (*table)->GetColumn("address_string");
  for (int64_t i = 0; i < src->count(); ++i) {
    rows.emplace_back(src->GetString(i));
  }
  for (int i = 0; i < 200; ++i) rows.push_back("no address at all");
  return rows;
}

TEST(SegmentedSplitTest, HybridAndAutoReturnTheResidentResult) {
  Hal hal(TestHal(2));
  sched::ResultCache cache(1 << 22);
  ColumnStoreEngine::Options options;
  options.num_threads = 4;
  options.hal = &hal;
  options.result_cache = &cache;
  options.segment_target_bytes = 4 * 1024;
  ColumnStoreEngine engine(options);
  ASSERT_TRUE(engine.CreateSegmentedColumn("t", "addr").ok());
  const std::vector<std::string> rows = SplitRows();
  ASSERT_TRUE(engine.AppendToSegmented("t", "addr", rows, /*seal=*/true).ok());
  ASSERT_GE(engine.segmented_column("t", "addr")->Snapshot().segments.size(),
            2u);
  Bat resident(ValueType::kString, hal.bat_allocator());
  for (const std::string& row : rows) {
    ASSERT_TRUE(resident.AppendString(row).ok());
  }

  StringFilterSpec spec;
  spec.pattern = QueryPattern(EvalQuery::kQH);
  spec.op = StringFilterSpec::Op::kRegexpFpga;
  EXPECT_TRUE(engine.EvalSegmentedFilter("t", "addr", spec, nullptr)
                  .status()
                  .IsCapacityExceeded());
  for (StringFilterSpec::Op op :
       {StringFilterSpec::Op::kHybrid, StringFilterSpec::Op::kAuto}) {
    spec.op = op;
    auto expected = engine.EvalStringFilter(resident, spec, nullptr);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    // Cold, then with every segment's prefix block cached.
    for (int pass = 0; pass < 2; ++pass) {
      QueryStats stats;
      auto got = engine.EvalSegmentedFilter("t", "addr", spec, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *expected) << "pass " << pass;
      EXPECT_EQ(stats.strategy, op == StringFilterSpec::Op::kAuto
                                    ? "auto->hybrid-streamed"
                                    : "hybrid-streamed");
      EXPECT_GT(stats.config_gen_seconds, 0.0);
    }
  }

  // A pattern with no device part returns the typed error.
  spec.op = StringFilterSpec::Op::kHybrid;
  spec.pattern = "^" + QueryPattern(EvalQuery::kQH);
  EXPECT_TRUE(engine.EvalSegmentedFilter("t", "addr", spec, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST(SegmentedSplitTest, StreamedContinuationEqualsExecuteHybrid) {
  for (int devices : {1, 2}) {
    Hal hal(TestHal(devices));
    const std::vector<std::string> rows = SplitRows();
    Bat resident(ValueType::kString, hal.bat_allocator());
    for (const std::string& row : rows) {
      ASSERT_TRUE(resident.AppendString(row).ok());
    }
    auto plan = PlanHybrid(QueryPattern(EvalQuery::kQH), hal.device_config());
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->strategy, HybridStrategy::kHybrid);
    auto expected = ExecuteHybrid(&hal, resident, *plan);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    Pager pager(hal.arena(), PagerOptions{});
    auto column = BuildSegmented(&pager, rows, 4 * 1024);
    const SegmentSnapshot snapshot = column->Snapshot();
    sched::ResultCache cache(1 << 22);
    StreamOptions sopts;
    sopts.result_cache = &cache;
    obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
        "doppio.store.window_cache_hits");
    const ScanContinuation continuation = ContinuationOf(*plan);
    for (int pass = 0; pass < 2; ++pass) {
      const int64_t hits_before = hits->Value();
      auto out = RegexpFpgaStreamed(&hal, &pager, snapshot,
                                    *plan->fpga_config, sopts, &continuation);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(out->stats.strategy, "hybrid-streamed");
      ASSERT_EQ(out->result->count(), resident.count());
      for (int64_t i = 0; i < resident.count(); ++i) {
        ASSERT_EQ(out->result->GetInt16(i), expected->result->GetInt16(i))
            << devices << " devices, pass " << pass << ", row " << i;
      }
      EXPECT_EQ(out->stats.rows_matched, expected->stats.rows_matched);
      if (pass == 0) {
        EXPECT_EQ(out->stats.rows_scanned, snapshot.rows);
        continue;
      }
      // Warm: every window is a cache hit, and none scans. Windows with
      // candidates were pinned and resumed; the rest were served up
      // front.
      EXPECT_EQ(hits->Value() - hits_before,
                static_cast<int64_t>(snapshot.segments.size()));
      EXPECT_EQ(out->stats.rows_scanned, 0);
      EXPECT_EQ(out->stats.windows_streamed, 0);
      int with_candidates = 0;
      int without = 0;
      for (const auto& segment : snapshot.segments) {
        CacheHit hit = ResolveCached(&cache, *plan->fpga_config,
                                     {segment->id(), Segment::kSealedVersion},
                                     segment->rows(), {.prefix = false});
        ASSERT_NE(hit.block, nullptr);
        (hit.block->rows_matched > 0 ? with_candidates : without) += 1;
      }
      EXPECT_GT(with_candidates, 0);
      EXPECT_GT(without, 0);
    }
  }
}

}  // namespace
}  // namespace doppio
