#include "sched/result_cache.h"

#include <algorithm>

#include "obs/metrics.h"

namespace doppio {
namespace sched {
namespace {

obs::Counter* HitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.hits",
      "result-cache lookups served from a cached block");
  return c;
}

obs::Counter* PartialHitsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.partial_hits",
      "lookups served partially: cached prefix block + appended-tail scan");
  return c;
}

obs::Counter* MissesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.misses",
      "result-cache lookups that required a scan");
  return c;
}

obs::Counter* EvictionsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.evictions",
      "result-cache entries evicted (LRU budget or invalidation)");
  return c;
}

obs::Counter* IncompleteCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.incomplete_skipped",
      "result blocks refused by the completeness guard "
      "(saturated or fallback-degraded)");
  return c;
}

obs::Counter* AdmissionRejectsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.admission_rejects",
      "result blocks refused by admission: empty, over the whole budget, "
      "or referenced less often than an LRU victim they would evict");
  return c;
}

// The (fingerprint, column) part of an entry key: everything before the
// version. The version is decimal digits, so the last separator is the
// one in front of it, whatever bytes the fingerprint holds.
std::string_view RefKeyOf(std::string_view key) {
  return key.substr(0, key.rfind('\x1f'));
}

obs::Gauge* BytesGauge() {
  static obs::Gauge* g = obs::MetricsRegistry::Global().GetGauge(
      "doppio.sched.result_cache.bytes",
      "bytes currently held by the result cache");
  return g;
}

obs::Counter* BytesSavedCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.bytes_saved",
      "result bytes served from cache instead of rescanned");
  return c;
}

obs::Counter* PrefilterUsesCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.prefilter_uses",
      "hybrid refinements run over a cached coarser candidate set");
  return c;
}

obs::Counter* PrefilterRejectsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "doppio.sched.result_cache.prefilter_rejects",
      "hybrid pre-filter lookups with no usable cached coarser scan");
  return c;
}

}  // namespace

ResultCache::ResultCache(int64_t max_bytes)
    : max_bytes_(std::max<int64_t>(1, max_bytes)) {
  // Touch every instrument once so a scrape sees the full series even
  // before the first lookup.
  HitsCounter();
  PartialHitsCounter();
  MissesCounter();
  EvictionsCounter();
  IncompleteCounter();
  AdmissionRejectsCounter();
  BytesGauge();
  BytesSavedCounter();
  PrefilterUsesCounter();
  PrefilterRejectsCounter();
}

std::string ResultCache::MakeKey(std::string_view fingerprint,
                                 uint64_t column_id,
                                 uint64_t column_version) {
  std::string key;
  key.reserve(fingerprint.size() + 24);
  key.append(fingerprint);
  key.push_back('\x1f');
  key.append(std::to_string(column_id));
  key.push_back('\x1f');
  key.append(std::to_string(column_version));
  return key;
}

std::shared_ptr<const CachedResultBlock> ResultCache::Get(
    std::string_view fingerprint, uint64_t column_id, uint64_t column_version,
    int64_t rows, bool count_miss) {
  const std::string key = MakeKey(fingerprint, column_id, column_version);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  // A row-extent mismatch means the caller's admission snapshot disagrees
  // with what the entry covers (an append raced in before this version was
  // even keyed, or the entry predates a truncation). Serving it would
  // violate the snapshot; miss instead.
  if (it == index_.end() || it->second->block->rows() != rows) {
    if (count_miss) {
      ++misses_;
      MissesCounter()->Add();
      CountReferenceLocked(key);
    }
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  HitsCounter()->Add();
  CountReferenceLocked(key);
  bytes_saved_ += it->second->block->bytes();
  BytesSavedCounter()->Add(it->second->block->bytes());
  return it->second->block;
}

std::shared_ptr<const CachedResultBlock> ResultCache::GetPrefix(
    std::string_view fingerprint, uint64_t column_id, int64_t rows) {
  // Keys are fingerprint \x1f column \x1f version; match on the
  // fingerprint-and-column prefix so any cached version of this program
  // over this column qualifies.
  std::string want;
  want.reserve(fingerprint.size() + 24);
  want.append(fingerprint);
  want.push_back('\x1f');
  want.append(std::to_string(column_id));
  want.push_back('\x1f');

  std::lock_guard<std::mutex> lock(mutex_);
  std::list<Entry>::iterator best = lru_.end();
  auto range = by_column_.equal_range(column_id);
  for (auto c = range.first; c != range.second; ++c) {
    if (c->second.compare(0, want.size(), want) != 0) continue;
    auto entry = index_.find(c->second);
    if (entry == index_.end()) continue;
    const int64_t have = entry->second->block->rows();
    // Strictly smaller: an equal extent is an exact hit Get() already
    // handles; a larger one covers rows the caller's snapshot does not.
    if (have <= 0 || have >= rows) continue;
    if (best == lru_.end() || have > best->block->rows()) {
      best = entry->second;
    }
  }
  if (best == lru_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, best);
  ++partial_hits_;
  PartialHitsCounter()->Add();
  bytes_saved_ += best->block->bytes();
  BytesSavedCounter()->Add(best->block->bytes());
  return best->block;
}

bool ResultCache::Put(std::string_view fingerprint, uint64_t column_id,
                      uint64_t column_version, std::vector<uint16_t> values,
                      bool degraded) {
  // Completeness guard (the saturation-reuse hazard, ISSUE 9): 65535 means
  // "matched, true end position truncated". A block holding one is not a
  // faithful record of the scan, so it must never be replayed or seed a
  // pre-filter candidate set. Degraded runs mixed per-slice software
  // fallback into the block; refuse those for the same reason.
  if (degraded ||
      std::find(values.begin(), values.end(), kSaturated) != values.end()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++incomplete_skipped_;
    IncompleteCounter()->Add();
    return false;
  }

  auto block = std::make_shared<CachedResultBlock>();
  block->values = std::move(values);
  for (uint16_t v : block->values) {
    if (v != 0) ++block->rows_matched;
  }
  const int64_t block_bytes = block->bytes();

  const std::string key = MakeKey(fingerprint, column_id, column_version);
  std::lock_guard<std::mutex> lock(mutex_);
  // An empty block holds nothing to serve; one larger than the whole
  // budget would flush everything else.
  if (block->values.empty() || block_bytes > max_bytes_) {
    RejectLocked();
    return false;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Scans are deterministic per (fingerprint, column, version): the
    // existing block is identical. Keep it (readers may hold it), promote.
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  // Admission: compare the new block against exactly the LRU-tail
  // victims it needs, and refuse it — evicting nothing — when any of
  // them is referenced more often. The budget holds the block, so the
  // walk stops before the list ends.
  const int64_t excess = bytes_ + block_bytes - max_bytes_;
  if (excess > 0) {
    const int64_t refs = ReferencesLocked(key);
    int64_t freed = 0;
    for (auto victim = lru_.rbegin(); freed < excess; ++victim) {
      if (ReferencesLocked(victim->key) > refs) {
        RejectLocked();
        return false;
      }
      freed += victim->block->bytes();
    }
  }
  lru_.push_front(Entry{key, column_id, std::move(block)});
  index_[key] = lru_.begin();
  by_column_.emplace(column_id, key);
  bytes_ += block_bytes;
  while (bytes_ > max_bytes_) {
    ++evictions_;
    EvictionsCounter()->Add();
    EraseLocked(std::prev(lru_.end()));
  }
  SetBytesGaugeLocked();
  return true;
}

void ResultCache::InvalidateColumn(uint64_t column_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto range = by_column_.equal_range(column_id);
  for (auto it = range.first; it != range.second;) {
    auto entry = index_.find(it->second);
    it = by_column_.erase(it);
    if (entry == index_.end()) continue;
    ++invalidations_;
    ++evictions_;
    EvictionsCounter()->Add();
    // EraseLocked would re-scan by_column_ for the key we just dropped;
    // unlink the remaining indexes directly.
    bytes_ -= entry->second->block->bytes();
    lru_.erase(entry->second);
    index_.erase(entry);
  }
  SetBytesGaugeLocked();
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  by_column_.clear();
  refs_.clear();
  lookups_since_halving_ = 0;
  bytes_ = 0;
  SetBytesGaugeLocked();
}

void ResultCache::EraseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->block->bytes();
  auto range = by_column_.equal_range(it->column_id);
  for (auto c = range.first; c != range.second; ++c) {
    if (c->second == it->key) {
      by_column_.erase(c);
      break;
    }
  }
  index_.erase(it->key);
  lru_.erase(it);
}

void ResultCache::SetBytesGaugeLocked() { BytesGauge()->Set(bytes_); }

void ResultCache::CountReferenceLocked(std::string_view key) {
  const std::string_view ref = RefKeyOf(key);
  auto it = refs_.find(ref);
  if (it != refs_.end()) {
    ++it->second;
  } else {
    refs_.emplace(std::string(ref), 1);
  }
  const int64_t period =
      kHalvingLookups *
      std::max<int64_t>(kMinHalvingEntries, static_cast<int64_t>(lru_.size()));
  if (++lookups_since_halving_ < period) return;
  lookups_since_halving_ = 0;
  for (auto c = refs_.begin(); c != refs_.end();) {
    c->second /= 2;
    c = c->second == 0 ? refs_.erase(c) : std::next(c);
  }
}

int64_t ResultCache::ReferencesLocked(std::string_view key) const {
  auto it = refs_.find(RefKeyOf(key));
  return it == refs_.end() ? 0 : it->second;
}

void ResultCache::RejectLocked() {
  ++admission_rejects_;
  AdmissionRejectsCounter()->Add();
}

void ResultCache::CountPrefilterUse(int64_t rows_avoided) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++prefilter_uses_;
  PrefilterUsesCounter()->Add();
  if (rows_avoided > 0) {
    const int64_t saved =
        rows_avoided * static_cast<int64_t>(sizeof(uint16_t));
    bytes_saved_ += saved;
    BytesSavedCounter()->Add(saved);
  }
}

void ResultCache::CountPrefilterReject() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++prefilter_rejects_;
  PrefilterRejectsCounter()->Add();
}

int64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t ResultCache::partial_hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return partial_hits_;
}

int64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

int64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

int64_t ResultCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return invalidations_;
}

int64_t ResultCache::incomplete_skipped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return incomplete_skipped_;
}

int64_t ResultCache::admission_rejects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admission_rejects_;
}

int64_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

int64_t ResultCache::bytes_saved() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_saved_;
}

int64_t ResultCache::prefilter_uses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return prefilter_uses_;
}

int64_t ResultCache::prefilter_rejects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return prefilter_rejects_;
}

int64_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(lru_.size());
}

}  // namespace sched
}  // namespace doppio
