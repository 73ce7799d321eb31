// Minimal JSON reader/writer for the job API wire format.
//
// The serve layer speaks newline-delimited JSON over a Unix socket and
// round-trips JobSpec/JobReport through it, so it needs a real parser —
// the rest of the repo only ever *emits* JSON (diagnostics, analysis
// reports, bench files). This one is deliberately small: a recursive-
// descent reader into an owning value tree, strict per RFC 8259 (no
// comments, no trailing commas, \uXXXX decoded to UTF-8), depth-capped
// so hostile input cannot blow the stack of a daemon thread.
//
// Numbers keep their source literal alongside the double: JobSpec and
// JobReport carry 64-bit counters (digests especially) that a double
// cannot represent exactly, so integer accessors re-parse the literal
// and range-check instead of rounding through the double.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/strings.hpp"  // json_append_quoted, the writers' quoter

namespace kms::serve {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document; trailing non-space bytes are an
  /// error. Throws JsonError with a byte offset on malformed input.
  static Json parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // Typed accessors; each throws JsonError on a kind mismatch (the
  // spec/report deserializers turn that into a precise field error).
  bool as_bool() const;
  double as_double() const;
  std::uint64_t as_u64() const;  ///< exact; rejects signs/fractions/overflow
  std::int64_t as_i64() const;   ///< exact; rejects fractions/overflow
  const std::string& as_string() const;
  const std::vector<Json>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

 private:
  friend class Parser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  /// String value, or the raw numeric literal (for exact integers).
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

/// Shortest round-trip decimal form of `v` (std::to_chars); emits the
/// JSON-legal spellings 0/-0 for signed zero and rejects NaN/Inf by
/// clamping to 0 (they have no JSON representation).
std::string json_double(double v);

}  // namespace kms::serve
