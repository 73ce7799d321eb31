#include "src/recover/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace kms::recover {
namespace {

std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

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

std::uint64_t parse_u64(const std::string& s, const std::string& key) {
  if (s.empty()) throw std::runtime_error("checkpoint: empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad integer for " + key + ": '" + s +
                             "'");
  return v;
}

std::uint64_t parse_hex(const std::string& s, const std::string& key) {
  if (s.size() != 16)
    throw std::runtime_error("checkpoint: bad digest for " + key + ": '" + s +
                             "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad digest for " + key + ": '" + s +
                             "'");
  return v;
}

double parse_dbl(const std::string& s, const std::string& key) {
  if (s.empty()) throw std::runtime_error("checkpoint: empty value for " + key);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size())
    throw std::runtime_error("checkpoint: bad double for " + key + ": '" + s +
                             "'");
  return v;
}

bool parse_flag(const std::string& s, const std::string& key) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::runtime_error("checkpoint: bad flag for " + key + ": '" + s +
                           "'");
}

/// Field table shared by the writer and the parser, so the two can
/// never drift apart: every serialized key is one entry here.
struct FieldTable {
  std::vector<std::pair<std::string, std::string>> out;  // writer
  std::map<std::string, std::function<void(const std::string&)>> in;  // parser
  bool writing = false;

  void field(const std::string& key, std::uint64_t* f) {
    if (writing)
      out.emplace_back(key, fmt_u64(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_u64(v, key); };
  }
  void hex(const std::string& key, std::uint64_t* f) {
    if (writing)
      out.emplace_back(key, fmt_hex(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_hex(v, key); };
  }
  void field(const std::string& key, double* f) {
    if (writing)
      out.emplace_back(key, fmt_dbl(*f));
    else
      in[key] = [f, key](const std::string& v) { *f = parse_dbl(v, key); };
  }
  void field(const std::string& key, bool* f) {
    if (writing)
      out.emplace_back(key, *f ? "1" : "0");
    else
      in[key] = [f, key](const std::string& v) { *f = parse_flag(v, key); };
  }
  /// A string value spanning the rest of the line; "" serialized as "-".
  void field(const std::string& key, std::string* f) {
    if (writing)
      out.emplace_back(key, f->empty() ? "-" : *f);
    else
      in[key] = [f](const std::string& v) { *f = v == "-" ? "" : v; };
  }

  void bind(Checkpoint& c) {
    field("phase", &c.phase);
    field("cursor", &c.cursor);
    field("steps", &c.steps);
    field("drat-certs", &c.drat_certs);
    hex("net-digest", &c.net_digest);
    field("rng", &c.rng_state);
    // Every counter of the three groups, keyed <group>.<member>.
#define KMS_BIND(member, ...) field(group + #member, &counters.member);
    {
      const std::string group = "kms.";
      KmsStats& counters = c.stats;
      KMS_LOOP_COUNTERS(KMS_BIND)
    }
    {
      const std::string group = "rm.";
      RedundancyRemovalResult& counters = c.stats.removal;
      KMS_REMOVAL_COUNTERS(KMS_BIND)
    }
    {
      const std::string group = "atpg.";
      AtpgStats& counters = c.stats.removal.atpg;
      KMS_ATPG_COUNTERS(KMS_BIND)
    }
#undef KMS_BIND
  }
};

}  // namespace

std::string write_checkpoint(const Checkpoint& c) {
  FieldTable t;
  t.writing = true;
  t.bind(const_cast<Checkpoint&>(c));
  std::ostringstream out;
  for (const auto& [key, value] : t.out) out << key << ' ' << value << '\n';
  return out.str();
}

Checkpoint read_checkpoint(const std::string& text) {
  Checkpoint c;
  FieldTable t;
  t.bind(c);

  std::size_t pos = 0;
  std::size_t seen = 0;
  std::map<std::string, bool> assigned;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos)
      throw std::runtime_error("checkpoint: unterminated line");
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos)
      throw std::runtime_error("checkpoint: malformed line '" + line + "'");
    const std::string key = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    const auto it = t.in.find(key);
    if (it == t.in.end())
      throw std::runtime_error("checkpoint: unknown key '" + key + "'");
    if (assigned[key])
      throw std::runtime_error("checkpoint: duplicate key '" + key + "'");
    assigned[key] = true;
    it->second(value);
    ++seen;
  }
  if (seen != t.in.size())
    throw std::runtime_error("checkpoint: missing fields (" +
                             std::to_string(seen) + " of " +
                             std::to_string(t.in.size()) + ")");
  if (c.phase != "loop" && c.phase != "removal")
    throw std::runtime_error("checkpoint: unknown phase '" + c.phase + "'");
  return c;
}

}  // namespace kms::recover
