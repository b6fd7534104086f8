#include "store/pager.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"

namespace doppio {

namespace {

obs::Counter& PageInsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.page_ins", "segment payloads read from the spill file");
  return *c;
}

obs::Counter& PageInBytesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.page_in_bytes", "bytes paged into the shared arena");
  return *c;
}

obs::Counter& PageOutsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.page_outs", "resident segments evicted (no write-back)");
  return *c;
}

obs::Counter& PageOutBytesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.page_out_bytes", "bytes freed back to the shared arena");
  return *c;
}

obs::Counter& PinHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.pin_hits", "pins satisfied by an already-resident payload");
  return *c;
}

obs::Counter& SealedSegmentsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.store.sealed_segments", "segments adopted into the spill file");
  return *c;
}

obs::Gauge& ResidentBytesGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.store.resident_bytes", "segment bytes pinned-or-cached in arena");
  return *g;
}

obs::Gauge& SpillBytesGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.store.spill_bytes", "spill-file high-water mark");
  return *g;
}

obs::Histogram& PageInSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "doppio.store.page_in_size_bytes", obs::BytesBuckets(),
      "payload size per page-in");
  return *h;
}

/// Page-granular footprint of a payload (the arena hands out whole pages).
int64_t PagesBytes(int64_t payload_bytes) {
  const int64_t pages =
      (payload_bytes + kSharedPageBytes - 1) / kSharedPageBytes;
  return std::max<int64_t>(pages, 1) * kSharedPageBytes;
}

}  // namespace

Pager::Pager(SharedArena* arena, PagerOptions options)
    : arena_(arena), options_(options) {
  DOPPIO_CHECK(arena_ != nullptr);
  spill_ = std::tmpfile();
  DOPPIO_CHECK(spill_ != nullptr);
}

Pager::~Pager() {
  DropClean();
  {
    // Segments leave adopted_ (and residents_) when they die, so every
    // segment touched here is alive.
    std::lock_guard<std::mutex> lock(mutex_);
    // Pinned residents at destruction are a caller bug; free anyway so the
    // arena does not leak pages in tests that tear down mid-error.
    for (Segment* seg : residents_) {
      FreeRunLocked(seg);
      seg->pins_ = 0;
    }
    residents_.clear();
    for (Segment* seg : adopted_) seg->pager_ = nullptr;
    adopted_.clear();
    if (spill_ != nullptr) std::fclose(spill_);
  }
  ResidentBytesGauge().Set(0);
}

void Pager::Forget(Segment* segment) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment->resident_) {
    FreeRunLocked(segment);
    residents_.erase(
        std::find(residents_.begin(), residents_.end(), segment));
    ResidentBytesGauge().Set(resident_bytes_);
  }
  adopted_.erase(segment);
  segment->pager_ = nullptr;
}

Status Pager::AdoptSealed(Segment* segment,
                          const std::vector<uint8_t>& payload) {
  if (segment == nullptr || !segment->sealed()) {
    return Status::InvalidArgument("pager can only adopt sealed segments");
  }
  if (static_cast<int64_t>(payload.size()) != segment->payload_bytes()) {
    return Status::InvalidArgument("segment payload size mismatch");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment->file_offset_ >= 0) {
    return Status::AlreadyExists("segment already adopted");
  }
  if (std::fseek(spill_, 0, SEEK_END) != 0) {
    return Status::IOError("spill seek failed");
  }
  const int64_t at = std::ftell(spill_);
  if (!payload.empty() &&
      std::fwrite(payload.data(), 1, payload.size(), spill_) !=
          payload.size()) {
    return Status::IOError("spill write failed");
  }
  if (std::fflush(spill_) != 0) {
    return Status::IOError("spill flush failed");
  }
  segment->file_offset_ = at;
  segment->pager_ = this;
  adopted_.insert(segment);
  spill_bytes_ = at + static_cast<int64_t>(payload.size());
  SealedSegmentsCounter().Add(1);
  SpillBytesGauge().Set(spill_bytes_);
  return Status::OK();
}

Result<PinnedSegment> Pager::Pin(Segment* segment) {
  if (segment == nullptr || !segment->sealed()) {
    return Status::InvalidArgument("pin requires a sealed segment");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (segment->file_offset_ < 0) {
    return Status::InvalidArgument("segment was never adopted by this pager");
  }
  PinnedSegment view;
  if (!segment->resident_) {
    DOPPIO_RETURN_NOT_OK(PageInLocked(segment));
    view.paged_in = true;
  } else {
    PinHitsCounter().Add(1);
  }
  ++segment->pins_;
  segment->lru_tick_ = ++lru_clock_;
  view.offsets = segment->run_.data;
  view.heap = segment->run_.data + segment->offsets_span_bytes();
  view.heap_bytes = segment->heap_bytes();
  view.rows = segment->rows();
  return view;
}

void Pager::Unpin(Segment* segment) {
  if (segment == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  DOPPIO_CHECK(segment->pins_ > 0);
  --segment->pins_;
}

void Pager::DropClean() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Segment*> keep;
  for (Segment* seg : residents_) {
    if (seg->pins_ > 0) {
      keep.push_back(seg);
    } else {
      EvictOneLocked(seg);
    }
  }
  residents_ = std::move(keep);
}

int64_t Pager::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

int64_t Pager::spill_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spill_bytes_;
}

bool Pager::EvictForLocked(int64_t needed_bytes) {
  while (resident_bytes_ + needed_bytes > options_.budget_bytes) {
    Segment* victim = nullptr;
    size_t victim_at = 0;
    for (size_t i = 0; i < residents_.size(); ++i) {
      Segment* seg = residents_[i];
      if (seg->pins_ > 0) continue;
      if (victim == nullptr || seg->lru_tick_ < victim->lru_tick_) {
        victim = seg;
        victim_at = i;
      }
    }
    if (victim == nullptr) return false;  // everything resident is pinned
    EvictOneLocked(victim);
    residents_.erase(residents_.begin() + static_cast<ptrdiff_t>(victim_at));
  }
  return true;
}

void Pager::EvictOneLocked(Segment* victim) {
  // Sealed payloads are write-once: eviction is just freeing the run.
  const int64_t freed = victim->run_.size_bytes();
  FreeRunLocked(victim);
  PageOutsCounter().Add(1);
  PageOutBytesCounter().Add(freed);
  ResidentBytesGauge().Set(resident_bytes_);
}

void Pager::FreeRunLocked(Segment* victim) {
  resident_bytes_ -= victim->run_.size_bytes();
  (void)arena_->FreePages(victim->run_);
  victim->run_ = PageRun{};
  victim->resident_ = false;
}

Status Pager::PageInLocked(Segment* segment) {
  const int64_t payload = std::max<int64_t>(segment->payload_bytes(), 1);
  const int64_t footprint = PagesBytes(payload);
  if (footprint > options_.budget_bytes) {
    return Status::ResourceExhausted("segment larger than the pager budget");
  }
  if (!EvictForLocked(footprint)) {
    return Status::ResourceExhausted(
        "pager budget exhausted: all resident segments are pinned");
  }
  Result<PageRun> run = arena_->AllocatePages(payload);
  while (!run.ok()) {
    // Under budget but the arena itself is out of (contiguous) pages —
    // shed LRU residents one at a time until the allocation fits.
    Segment* victim = nullptr;
    size_t victim_at = 0;
    for (size_t i = 0; i < residents_.size(); ++i) {
      Segment* seg = residents_[i];
      if (seg->pins_ > 0) continue;
      if (victim == nullptr || seg->lru_tick_ < victim->lru_tick_) {
        victim = seg;
        victim_at = i;
      }
    }
    if (victim == nullptr) return run.status();
    EvictOneLocked(victim);
    residents_.erase(residents_.begin() + static_cast<ptrdiff_t>(victim_at));
    run = arena_->AllocatePages(payload);
  }
  // Read the payload from the spill file into the fresh run.
  if (std::fseek(spill_, static_cast<long>(segment->file_offset_),
                 SEEK_SET) != 0) {
    (void)arena_->FreePages(*run);
    return Status::IOError("spill seek failed");
  }
  const size_t want = static_cast<size_t>(segment->payload_bytes());
  if (want > 0 && std::fread(run->data, 1, want, spill_) != want) {
    (void)arena_->FreePages(*run);
    return Status::IOError("spill read failed");
  }
  segment->run_ = *run;
  segment->resident_ = true;
  residents_.push_back(segment);
  resident_bytes_ += run->size_bytes();
  PageInsCounter().Add(1);
  PageInBytesCounter().Add(segment->payload_bytes());
  PageInSizeHistogram().Observe(static_cast<double>(segment->payload_bytes()));
  ResidentBytesGauge().Set(resident_bytes_);
  return Status::OK();
}

}  // namespace doppio
