#include "src/recover/fields.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>

namespace kms::recover {
namespace {

std::string fmt_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// %.17g round-trips every finite double exactly.
std::string fmt_dbl(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void fail(const std::string& what, const std::string& message) {
  throw std::runtime_error(what + ": " + message);
}

std::uint64_t parse_u64(const std::string& what, const std::string& s,
                        const std::string& key) {
  if (s.empty()) fail(what, "empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    fail(what, "bad integer for " + key + ": '" + s + "'");
  return v;
}

std::uint64_t parse_hex(const std::string& what, const std::string& s,
                        const std::string& key) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (s.size() != 16 || errno != 0 || end != s.c_str() + s.size())
    fail(what, "bad digest for " + key + ": '" + s + "'");
  return v;
}

double parse_dbl(const std::string& what, const std::string& s,
                 const std::string& key) {
  if (s.empty()) fail(what, "empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size())
    fail(what, "bad double for " + key + ": '" + s + "'");
  return v;
}

bool parse_flag(const std::string& what, const std::string& s,
                const std::string& key) {
  if (s == "0") return false;
  if (s == "1") return true;
  fail(what, "bad flag for " + key + ": '" + s + "'");
}

}  // namespace

void FieldTable::field(const std::string& key, std::uint64_t* f) {
  fields_.push_back({key, [f] { return std::to_string(*f); },
                     [f, key, what = what_](const std::string& v) {
                       *f = parse_u64(what, v, key);
                     }});
}

void FieldTable::hex(const std::string& key, std::uint64_t* f) {
  fields_.push_back({key, [f] { return fmt_hex(*f); },
                     [f, key, what = what_](const std::string& v) {
                       *f = parse_hex(what, v, key);
                     }});
}

void FieldTable::field(const std::string& key, double* f) {
  fields_.push_back({key, [f] { return fmt_dbl(*f); },
                     [f, key, what = what_](const std::string& v) {
                       *f = parse_dbl(what, v, key);
                     }});
}

void FieldTable::field(const std::string& key, bool* f) {
  fields_.push_back({key, [f] { return std::string(*f ? "1" : "0"); },
                     [f, key, what = what_](const std::string& v) {
                       *f = parse_flag(what, v, key);
                     }});
}

void FieldTable::field(const std::string& key, std::string* f) {
  fields_.push_back({key, [f] { return f->empty() ? "-" : *f; },
                     [f](const std::string& v) { *f = v == "-" ? "" : v; }});
}

std::string FieldTable::write() const {
  std::string out;
  for (const Field& f : fields_) out += f.key + ' ' + f.format() + '\n';
  return out;
}

void FieldTable::read(const std::string& text) const {
  std::map<std::string, const Field*> by_key;
  for (const Field& f : fields_) by_key[f.key] = &f;
  std::map<std::string, bool> assigned;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) fail(what_, "unterminated line");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) fail(what_, "malformed line '" + line + "'");
    const std::string key = line.substr(0, sp);
    const auto it = by_key.find(key);
    if (it == by_key.end()) fail(what_, "unknown key '" + key + "'");
    if (assigned[key]) fail(what_, "duplicate key '" + key + "'");
    assigned[key] = true;
    it->second->parse(line.substr(sp + 1));
  }
  if (assigned.size() != fields_.size())
    fail(what_, "missing fields (" + std::to_string(assigned.size()) + " of " +
                    std::to_string(fields_.size()) + ")");
}

}  // namespace kms::recover
