// Minimal JSON emission and validation for the observability exports.
//
// Everything the tracer and the metrics registry write — Chrome
// trace_event files, metrics dumps, figure JSON from the bench harness —
// goes through this writer so the output is well-formed by construction:
// strings are escaped, and non-finite doubles (the inf/NaN a zero-row or
// zero-duration run would otherwise produce, invalid per RFC 8259) are
// clamped to 0. `CheckJsonSyntax` is the matching strict parser, used by
// tests and CI to round-trip every emitted document.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace doppio {
namespace obs {

/// `value` when finite, `fallback` for inf/NaN (and for the inf that a
/// division by zero just produced). Use for every rate/throughput field
/// that lands in JSON.
double FiniteOr(double value, double fallback = 0);

/// numerator/denominator, 0 when the denominator is 0 or the quotient is
/// non-finite — the safe form of every MB/s-style computation.
double SafeRate(double numerator, double denominator);

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Object key; must be followed by exactly one value (or Begin*).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Double(double value);  // non-finite values emit 0
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// Convenience: Key(k) + value.
  JsonWriter& Field(std::string_view key, std::string_view value) {
    return Key(key).String(value);
  }
  JsonWriter& Field(std::string_view key, int64_t value) {
    return Key(key).Int(value);
  }
  JsonWriter& Field(std::string_view key, double value) {
    return Key(key).Double(value);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void MaybeComma();

  std::string out_;
  /// One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Appends `value` to `out` with JSON string escaping (no quotes added).
void AppendJsonEscaped(std::string* out, std::string_view value);

/// Strict RFC 8259 syntax check (objects, arrays, strings, numbers,
/// true/false/null; rejects NaN/Infinity literals and trailing garbage).
/// Returns OK for a single valid JSON value.
Status CheckJsonSyntax(std::string_view text);

}  // namespace obs
}  // namespace doppio
