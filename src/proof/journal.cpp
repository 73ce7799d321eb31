#include "src/proof/journal.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/base/strings.hpp"

namespace kms::proof {
namespace {

struct KindName {
  JournalStep::Kind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {JournalStep::Kind::kPathUnsens, "path-unsens"},
    {JournalStep::Kind::kPathGiveup, "path-giveup"},
    {JournalStep::Kind::kDuplicate, "duplicate"},
    {JournalStep::Kind::kConstant, "constant"},
    {JournalStep::Kind::kFaultUntestable, "fault-untestable"},
    {JournalStep::Kind::kFaultUnknown, "fault-unknown"},
    {JournalStep::Kind::kDelete, "delete"},
    {JournalStep::Kind::kPartial, "partial"},
};

/// Quote a free-text field: backslash-escape '"' and '\'.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const char* journal_kind_name(JournalStep::Kind k) {
  for (const KindName& kn : kKindNames)
    if (kn.kind == k) return kn.name;
  return "?";
}

void TransformJournal::add(JournalStep step) {
  steps_.push_back(std::move(step));
}

void TransformJournal::add_path_unsens(std::string path, std::int64_t proof) {
  add({JournalStep::Kind::kPathUnsens, proof, std::move(path), 0});
}
void TransformJournal::add_path_giveup(std::string reason) {
  add({JournalStep::Kind::kPathGiveup, -1, std::move(reason), 0});
}
void TransformJournal::add_duplicate(std::uint64_t gates) {
  add({JournalStep::Kind::kDuplicate, -1, {}, gates});
}
void TransformJournal::add_constant(std::uint64_t conn) {
  add({JournalStep::Kind::kConstant, -1, {}, conn});
}
void TransformJournal::add_fault_untestable(std::string fault,
                                            std::int64_t proof) {
  add({JournalStep::Kind::kFaultUntestable, proof, std::move(fault), 0});
}
void TransformJournal::add_fault_unknown(std::string fault) {
  add({JournalStep::Kind::kFaultUnknown, -1, std::move(fault), 0});
}
void TransformJournal::add_delete(std::string fault, std::int64_t proof) {
  add({JournalStep::Kind::kDelete, proof, std::move(fault), 0});
}
void TransformJournal::mark_partial(std::string reason) {
  add({JournalStep::Kind::kPartial, -1, std::move(reason), 0});
}

bool TransformJournal::partial() const {
  for (const JournalStep& s : steps_) {
    if (s.kind == JournalStep::Kind::kPartial ||
        s.kind == JournalStep::Kind::kFaultUnknown)
      return true;
    if (s.kind == JournalStep::Kind::kPathGiveup && s.what == "unknown")
      return true;
  }
  return false;
}

std::string format_step(const JournalStep& s) {
  std::ostringstream out;
  out << journal_kind_name(s.kind);
  if (s.proof >= 0) out << " proof=" << s.proof;
  if (s.count != 0) out << " count=" << s.count;
  if (!s.what.empty()) out << " what=" << quote(s.what);
  return out.str();
}

void TransformJournal::write(std::ostream& out) const {
  out << "kms-journal v1\n";
  out << "model " << quote(model_) << "\n";
  out << str_format("input-digest %016llx\n",
                    static_cast<unsigned long long>(input_digest_));
  for (const JournalStep& s : steps_) out << "step " << format_step(s) << "\n";
  out << str_format("output-digest %016llx\n",
                    static_cast<unsigned long long>(output_digest_));
  out << "end " << (partial() ? "partial" : "complete") << "\n";
}

std::string TransformJournal::to_text() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

namespace {

std::string parse_quoted(const std::string& line, std::size_t& pos) {
  if (pos >= line.size() || line[pos] != '"')
    throw std::runtime_error("journal: expected quoted string");
  std::string out;
  for (++pos; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c == '\\') {
      if (++pos >= line.size())
        throw std::runtime_error("journal: dangling escape");
      out += line[pos];
    } else if (c == '"') {
      ++pos;
      return out;
    } else {
      out += c;
    }
  }
  throw std::runtime_error("journal: unterminated quoted string");
}

std::uint64_t parse_hex(const std::string& s) {
  std::uint64_t v = 0;
  std::istringstream in(s);
  in >> std::hex >> v;
  if (in.fail()) throw std::runtime_error("journal: bad digest " + s);
  return v;
}

}  // namespace

JournalStep parse_step(const std::string& text) {
  std::istringstream ls(text);
  std::string kind_name;
  ls >> kind_name;
  if (kind_name == "step") ls >> kind_name;
  JournalStep step;
  bool known = false;
  for (const KindName& kn : kKindNames) {
    if (kind_name == kn.name) {
      step.kind = kn.kind;
      known = true;
      break;
    }
  }
  if (!known)
    throw std::runtime_error("journal: unknown step kind '" + kind_name + "'");
  // Scan the raw line key=value style: quoted values contain spaces, so
  // a stream tokenizer cannot walk past them.
  std::size_t pos = text.find(kind_name) + kind_name.size();
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos)
      throw std::runtime_error("journal: malformed step field in '" + text +
                               "'");
    const std::string key = text.substr(pos, eq - pos);
    if (key.find(' ') != std::string::npos)
      throw std::runtime_error("journal: malformed step field '" + key + "'");
    pos = eq + 1;
    std::string value;
    if (pos < text.size() && text[pos] == '"') {
      value = parse_quoted(text, pos);
    } else {
      const std::size_t end = text.find(' ', pos);
      value = text.substr(
          pos, end == std::string::npos ? std::string::npos : end - pos);
      pos = end == std::string::npos ? text.size() : end;
    }
    if (key == "proof") {
      step.proof = std::stoll(value);
    } else if (key == "count") {
      step.count = std::stoull(value);
    } else if (key == "what") {
      step.what = value;
    } else {
      throw std::runtime_error("journal: unknown field '" + key + "'");
    }
  }
  return step;
}

TransformJournal TransformJournal::read(std::istream& in) {
  TransformJournal j;
  std::string line;
  if (!std::getline(in, line) || line != "kms-journal v1")
    throw std::runtime_error("journal: missing 'kms-journal v1' header");
  bool ended = false;
  bool declared_partial = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "model") {
      std::size_t pos = line.find('"');
      if (pos == std::string::npos)
        throw std::runtime_error("journal: bad model line");
      j.model_ = parse_quoted(line, pos);
    } else if (word == "input-digest") {
      ls >> word;
      j.input_digest_ = parse_hex(word);
    } else if (word == "output-digest") {
      ls >> word;
      j.output_digest_ = parse_hex(word);
    } else if (word == "end") {
      ls >> word;
      if (word != "complete" && word != "partial")
        throw std::runtime_error("journal: bad end marker '" + word + "'");
      declared_partial = (word == "partial");
      ended = true;
    } else if (word == "step") {
      j.steps_.push_back(parse_step(line));
    } else {
      throw std::runtime_error("journal: unexpected line '" + line + "'");
    }
  }
  if (!ended) throw std::runtime_error("journal: missing end marker");
  // A journal that claims completeness while holding degradation steps
  // is self-contradictory; surface that at parse time already.
  if (!declared_partial && j.partial())
    throw std::runtime_error(
        "journal: declared complete but contains degraded steps");
  if (declared_partial && !j.partial())
    throw std::runtime_error(
        "journal: declared partial but records no degradation step");
  return j;
}

std::int64_t ProofSession::add_certificate(DratCertificate cert) {
  certs_.push_back(std::move(cert));
  return static_cast<std::int64_t>(certs_.size()) - 1;
}

}  // namespace kms::proof
