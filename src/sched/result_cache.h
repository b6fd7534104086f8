// Versioned match-result cache (ROADMAP item 5, docs/RESULT_CACHE.md).
//
// Query streams repeat: the same column scanned by the same (or an
// overlapping) pattern, wave after wave. Following the query-sequence-
// optimization line of work (PAPERS.md), this cache stores the *match
// result block* a scan produced — one uint16 per row: the saturated
// first-match end position, 0 = no match — keyed on
//
//     compiled-program fingerprint × column identity × column version
//
// so a repeat of the same program over the same immutable column snapshot
// is served without occupying an engine, and a *coarser* cached scan (the
// literal/prefix pre-pass of a hybrid plan) can seed the candidate rows
// for a refining pattern (pre-filter reuse, db/hybrid_executor).
//
// Correctness rules, in order of importance:
//  * Completeness guard: a block containing a 65535-saturated value is
//    *truncated* — the kernel reports "matched, true end unknown" — and a
//    fallback-degraded block mixes kernel and software semantics. Neither
//    is ever cached, so truncated data can never seed a pre-filter or be
//    replayed as a complete result.
//  * Versioning: Bat::version() bumps on every append, so entries for the
//    pre-append snapshot become unreachable immediately; explicit
//    InvalidateColumn (db ingest path) frees their budget eagerly.
//  * Snapshot discipline: Get() also checks the stored row count against
//    the caller's admitted row count — a concurrent append between
//    admission and execution misses instead of serving the wrong extent.
//
// Byte-budgeted LRU with frequency-aware admission: every counted lookup
// adds one reference to its (fingerprint, column) — the version is left
// out, so a segment block and a resident column's appended versions each
// keep one count — and a Put that can fit only by evicting is refused
// when any LRU victim it needs was referenced more often than the new
// block (TinyLFU-style; ties admit, so with no references to tell blocks
// apart this is plain LRU). Counts halve after a fixed number of counted
// lookups per resident entry, so a pattern that has cooled off can be
// displaced and the count table stays bounded. All counters are mirrored
// into the metrics registry under doppio.sched.result_cache.*.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"

namespace doppio {
namespace sched {

/// One cached scan result over one (program, column, version) triple:
/// `values[i]` is the uint16 the result BAT row i held (match end position
/// saturated at 65535, 0 = no match). Immutable once inserted; shared by
/// reference with whoever is serving from it.
struct CachedResultBlock {
  std::vector<uint16_t> values;
  /// Number of nonzero values — the rows_matched a served query reports.
  int64_t rows_matched = 0;

  int64_t rows() const { return static_cast<int64_t>(values.size()); }
  /// Budget charge: payload plus fixed bookkeeping overhead.
  int64_t bytes() const {
    return static_cast<int64_t>(values.size() * sizeof(uint16_t)) + 64;
  }
};

class ResultCache {
 public:
  /// The kernels' saturation value: "matched, end position >= 65535".
  static constexpr uint16_t kSaturated = 65535;

  /// Reference counts halve once the counted lookups since the last
  /// halving reach kHalvingLookups * max(kMinHalvingEntries, size()).
  /// Counts of 0 are dropped, so the table holds at most twice that many
  /// keys.
  static constexpr int64_t kHalvingLookups = 16;
  static constexpr int64_t kMinHalvingEntries = 64;

  /// `max_bytes` >= 1: byte budget over the sum of entry bytes().
  explicit ResultCache(int64_t max_bytes);

  DOPPIO_DISALLOW_COPY_AND_ASSIGN(ResultCache);

  /// Returns the cached block for (fingerprint, column, version) when one
  /// exists AND its row extent equals `rows` (the caller's admission-time
  /// snapshot) — anything else is a miss, counted unless `count_miss` is
  /// false (a re-probe of a lookup that already counted). A hit promotes
  /// the entry and credits bytes_saved with the rescan output it avoided.
  /// A hit and a counted miss each add one reference to (fingerprint,
  /// column), the count admission compares. Thread-safe.
  std::shared_ptr<const CachedResultBlock> Get(std::string_view fingerprint,
                                               uint64_t column_id,
                                               uint64_t column_version,
                                               int64_t rows,
                                               bool count_miss = true);

  /// Partial-extent reuse (ROADMAP item-5 follow-on): returns the LARGEST
  /// cached block for this fingerprint × column whose row extent is
  /// strictly below `rows`. Columns are append-only, so a complete block
  /// over an earlier version is still row-identical over the prefix it
  /// covers — the caller serves those rows from cache and scans only the
  /// appended tail [block->rows(), rows). A find promotes the entry and
  /// counts a partial hit (never a miss — callers try Get() first and
  /// that already counted, the reference included). Thread-safe.
  std::shared_ptr<const CachedResultBlock> GetPrefix(
      std::string_view fingerprint, uint64_t column_id, int64_t rows);

  /// Inserts a completed scan's result block, evicting LRU-tail entries
  /// while the budget is exceeded. Re-inserting an existing key just
  /// promotes it. Returns false, caching and evicting nothing, when:
  ///  * the block is `degraded` (any slice fell back to software or the
  ///    run was timing-only) or contains a kSaturated value — the
  ///    completeness guard, checked first (incomplete_skipped());
  ///  * the block is empty, or larger than the whole budget
  ///    (admission_rejects());
  ///  * it fits only by evicting, and one of the LRU-tail victims it would
  ///    need has more references than (fingerprint, column) has
  ///    (admission_rejects()).
  /// Thread-safe.
  bool Put(std::string_view fingerprint, uint64_t column_id,
           uint64_t column_version, std::vector<uint16_t> values,
           bool degraded);

  /// Drops every entry for `column_id`, whatever its version — the ingest
  /// path calls this on append so stale budget is freed eagerly (version
  /// keying alone already makes the entries unreachable).
  void InvalidateColumn(uint64_t column_id);

  /// Drops everything (test isolation).
  void Clear();

  // Pre-filter accounting, counted by the hybrid executor: a `use` is a
  // refinement served from a cached coarser scan; a `reject` is a lookup
  // that found no usable coarser entry (or refused one on the guard).
  void CountPrefilterUse(int64_t rows_avoided);
  void CountPrefilterReject();

  // Lifetime counters (mirrored under doppio.sched.result_cache.*).
  int64_t hits() const;
  int64_t partial_hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  int64_t invalidations() const;
  /// Puts refused by the completeness guard (saturated or degraded).
  int64_t incomplete_skipped() const;
  /// Puts refused by admission: empty, larger than the budget, or
  /// referenced less often than an LRU victim they would evict.
  int64_t admission_rejects() const;
  int64_t bytes() const;
  int64_t bytes_saved() const;
  int64_t prefilter_uses() const;
  int64_t prefilter_rejects() const;
  int64_t size() const;
  int64_t max_bytes() const { return max_bytes_; }

  /// The composed entry key, exposed for tests.
  static std::string MakeKey(std::string_view fingerprint, uint64_t column_id,
                             uint64_t column_version);

 private:
  struct Entry {
    std::string key;
    uint64_t column_id = 0;
    std::shared_ptr<const CachedResultBlock> block;
  };

  /// Transparent hashing: the reference table is probed with a
  /// string_view into a composed entry key, never a fresh string.
  struct RefHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>()(key);
    }
  };

  /// Unlinks the entry at `it` from every index. Caller holds mutex_.
  void EraseLocked(std::list<Entry>::iterator it);
  void SetBytesGaugeLocked();
  /// Adds one reference to the (fingerprint, column) of the entry key
  /// `key`, halving every count once the period is over. Caller holds
  /// mutex_.
  void CountReferenceLocked(std::string_view key);
  /// References to the (fingerprint, column) of the entry key `key`.
  /// Caller holds mutex_.
  int64_t ReferencesLocked(std::string_view key) const;
  /// Counts one admission refusal. Caller holds mutex_.
  void RejectLocked();

  const int64_t max_bytes_;

  mutable std::mutex mutex_;
  /// Front = most recently used; back = next eviction victim.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// column id -> keys currently cached for it (explicit invalidation).
  std::unordered_multimap<uint64_t, std::string> by_column_;
  /// (fingerprint, column) -> references since the counts last halved;
  /// keyed by the entry key's prefix up to its version, whether or not a
  /// block is cached.
  std::unordered_map<std::string, int64_t, RefHash, std::equal_to<>> refs_;
  int64_t lookups_since_halving_ = 0;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t partial_hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t invalidations_ = 0;
  int64_t incomplete_skipped_ = 0;
  int64_t admission_rejects_ = 0;
  int64_t bytes_saved_ = 0;
  int64_t prefilter_uses_ = 0;
  int64_t prefilter_rejects_ = 0;
};

}  // namespace sched
}  // namespace doppio
