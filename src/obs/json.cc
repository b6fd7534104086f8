#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace doppio {
namespace obs {

double FiniteOr(double value, double fallback) {
  return std::isfinite(value) ? value : fallback;
}

double SafeRate(double numerator, double denominator) {
  if (denominator == 0) return 0;
  return FiniteOr(numerator / denominator);
}

void AppendJsonEscaped(std::string* out, std::string_view value) {
  for (unsigned char c : value) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
}

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  AppendJsonEscaped(&out_, key);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  AppendJsonEscaped(&out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  MaybeComma();
  value = FiniteOr(value);
  char buf[40];
  // %.17g round-trips every double; trim to something readable when the
  // short form is exact.
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
  return *this;
}

// ---------------------------------------------------------------------------
// Strict syntax checker

namespace {

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  Status Check() {
    SkipWs();
    DOPPIO_RETURN_NOT_OK(Value());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return Status::OK();
  }

 private:
  Status Fail(const char* what) {
    return Status::InvalidArgument(std::string("bad JSON: ") + what +
                                   " at offset " + std::to_string(pos_));
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!Eof()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  Status Value() {
    if (Eof()) return Fail("unexpected end of input");
    switch (Peek()) {
      case '{': return Object();
      case '[': return Array();
      case '"': return StringValue();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return Status::OK();
  }

  Status Object() {
    ++pos_;  // '{'
    SkipWs();
    if (!Eof() && Peek() == '}') { ++pos_; return Status::OK(); }
    while (true) {
      SkipWs();
      if (Eof() || Peek() != '"') return Fail("expected object key");
      DOPPIO_RETURN_NOT_OK(StringValue());
      SkipWs();
      if (Eof() || Peek() != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      DOPPIO_RETURN_NOT_OK(Value());
      SkipWs();
      if (Eof()) return Fail("unterminated object");
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return Status::OK(); }
      return Fail("expected ',' or '}'");
    }
  }

  Status Array() {
    ++pos_;  // '['
    SkipWs();
    if (!Eof() && Peek() == ']') { ++pos_; return Status::OK(); }
    while (true) {
      SkipWs();
      DOPPIO_RETURN_NOT_OK(Value());
      SkipWs();
      if (Eof()) return Fail("unterminated array");
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return Status::OK(); }
      return Fail("expected ',' or ']'");
    }
  }

  Status StringValue() {
    ++pos_;  // '"'
    while (true) {
      if (Eof()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      if (c == '\\') {
        if (Eof()) return Fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': case '\\': case '/': case 'b': case 'f':
          case 'n': case 'r': case 't':
            break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              if (Eof() || !std::isxdigit(static_cast<unsigned char>(
                               text_[pos_]))) {
                return Fail("bad \\u escape");
              }
              ++pos_;
            }
            break;
          }
          default:
            return Fail("bad escape character");
        }
      }
    }
  }

  Status Number() {
    const size_t start = pos_;
    if (!Eof() && Peek() == '-') ++pos_;
    if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      // This is exactly where an unclamped inf/NaN print would land.
      return Fail("expected digit (inf/NaN are not valid JSON)");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!Eof() && Peek() == '.') {
      ++pos_;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("expected fraction digits");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("expected exponent digits");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    (void)start;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Status CheckJsonSyntax(std::string_view text) {
  return JsonChecker(text).Check();
}

}  // namespace obs
}  // namespace doppio
