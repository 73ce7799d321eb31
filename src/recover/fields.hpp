// Key-value records: the line-oriented "key value" text the session
// meta record and checkpoint records are written in.
//
// A record layout is bound once, field by field, and that one binding
// drives both the writer and the reader, so the two can never drift
// apart. Reading rejects unknown, duplicate and missing keys and
// malformed values outright: a record that does not round-trip exactly
// must never silently resume a run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace kms::recover {

class FieldTable {
 public:
  /// `what` prefixes every error message ("meta", "checkpoint").
  explicit FieldTable(std::string what) : what_(std::move(what)) {}

  void field(const std::string& key, std::uint64_t* f);   ///< decimal
  void hex(const std::string& key, std::uint64_t* f);     ///< 16 hex digits
  void field(const std::string& key, double* f);          ///< %.17g
  void field(const std::string& key, bool* f);            ///< 0 | 1
  /// The rest of the line; "" is written as "-".
  void field(const std::string& key, std::string* f);

  /// One "key value" line per bound field, in binding order.
  std::string write() const;

  /// Parse `text` into the bound fields. Throws std::runtime_error on an
  /// unterminated or malformed line, an unknown or duplicate key, a
  /// missing field or a malformed value.
  void read(const std::string& text) const;

 private:
  struct Field {
    std::string key;
    std::function<std::string()> format;
    std::function<void(const std::string&)> parse;
  };

  std::string what_;
  std::vector<Field> fields_;
};

}  // namespace kms::recover
