#include "src/serve/job.hpp"

#include <functional>
#include <iterator>

#include "src/proof/journal.hpp"
#include "src/serve/json.hpp"

namespace kms::serve {
namespace {

const char* const kKindNames[] = {"irr",  "audit", "certify", "analyze",
                                  "lint", "delay", "stats"};

void append_key(std::string* out, const char* key, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  json_append_quoted(out, key);
  out->push_back(':');
}

[[noreturn]] void bad_field(const char* what, const std::string& key,
                            const std::string& detail) {
  throw JobError(std::string(what) + ": field '" + key + "': " + detail);
}

/// Shared strict-object walk: `handle(key, value)` returns false for an
/// unknown key, which is an error.
void walk_object(const Json& doc, const char* what,
                 const std::function<bool(const std::string&, const Json&)>&
                     handle) {
  for (const auto& [key, value] : doc.members()) {
    try {
      if (!handle(key, value)) bad_field(what, key, "unknown key");
    } catch (const JsonError& e) {
      bad_field(what, key, e.what());
    }
  }
}

void check_schema(const Json& doc, const char* what, const char* want) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string())
    throw JobError(std::string(what) + ": missing schema version (expected \"" +
                   want + "\")");
  if (schema->as_string() != want)
    throw JobError(std::string(what) + ": unsupported schema version \"" +
                   schema->as_string() + "\" (this build speaks \"" + want +
                   "\")");
}

// Typed JSON value writers and readers for the report's field tables.
void append_value(std::string* out, const std::string& v) {
  json_append_quoted(out, v);
}
void append_value(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
}
void append_value(std::string* out, double v) { *out += json_double(v); }
void append_value(std::string* out, bool v) { *out += v ? "true" : "false"; }
void read_value(const Json& v, std::string* f) { *f = v.as_string(); }
void read_value(const Json& v, std::uint64_t* f) { *f = v.as_u64(); }
void read_value(const Json& v, double* f) { *f = v.as_double(); }
void read_value(const Json& v, bool* f) { *f = v.as_bool(); }

}  // namespace

const char* job_kind_name(JobKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

bool parse_job_kind(const std::string& name, JobKind* out) {
  for (int i = 0; i < static_cast<int>(std::size(kKindNames)); ++i) {
    if (name == kKindNames[i]) {
      *out = static_cast<JobKind>(i);
      return true;
    }
  }
  return false;
}

std::string JobSpec::to_json() const {
  std::string out = "{";
  bool first = true;
  append_key(&out, "schema", &first);
  json_append_quoted(&out, schema);
  append_key(&out, "kind", &first);
  json_append_quoted(&out, job_kind_name(kind));
#define KMS_EMIT(name, dflt)        \
  append_key(&out, #name, &first);  \
  json_append_quoted(&out, name);
  KMS_JOB_SPEC_STRING_FIELDS(KMS_EMIT)
#undef KMS_EMIT
#define KMS_EMIT(name, dflt)        \
  append_key(&out, #name, &first);  \
  out += std::to_string(name);
  KMS_JOB_SPEC_U64_FIELDS(KMS_EMIT)
  KMS_JOB_SPEC_I64_FIELDS(KMS_EMIT)
#undef KMS_EMIT
#define KMS_EMIT(name, dflt)        \
  append_key(&out, #name, &first);  \
  out += json_double(name);
  KMS_JOB_SPEC_F64_FIELDS(KMS_EMIT)
#undef KMS_EMIT
#define KMS_EMIT(name, dflt)        \
  append_key(&out, #name, &first);  \
  out += name ? "true" : "false";
  KMS_JOB_SPEC_BOOL_FIELDS(KMS_EMIT)
#undef KMS_EMIT
  out.push_back('}');
  return out;
}

std::string JobSpec::validate() const {
  if (schema != kJobSchemaV1) return "unsupported schema version";
  if (mode != "static" && mode != "viability")
    return "mode must be \"static\" or \"viability\"";
  if (!blif.empty() && !blif_path.empty())
    return "blif and blif_path are mutually exclusive";
  const bool has_payload = !blif.empty() || !blif_path.empty();
  if (!resume.empty()) {
    if (kind != JobKind::kIrr && kind != JobKind::kCertify)
      return "resume is only meaningful for irr/certify jobs";
    if (has_payload) return "resume and a BLIF payload are mutually exclusive";
  } else if (!has_payload && kind != JobKind::kStats) {
    return "no BLIF payload (blif or blif_path required)";
  }
  if (jobs > 1024) return "jobs out of range (0..1024)";
  if (time_limit < 0) return "time_limit must be >= 0";
  if (conflict_limit < -1) return "conflict_limit must be >= -1";
  if (!emit_proof.empty() && kind != JobKind::kIrr &&
      kind != JobKind::kCertify)
    return "emit_proof is only meaningful for irr/certify jobs";
  return "";
}

JobSpec parse_job_spec(const std::string& json_text) {
  Json doc;
  try {
    doc = Json::parse(json_text);
  } catch (const JsonError& e) {
    throw JobError(std::string("job spec: ") + e.what());
  }
  if (!doc.is_object()) throw JobError("job spec: expected a JSON object");
  check_schema(doc, "job spec", kJobSchemaV1);
  JobSpec spec;
  walk_object(doc, "job spec", [&](const std::string& key, const Json& v) {
    if (key == "schema") {
      spec.schema = v.as_string();
      return true;
    }
    if (key == "kind") {
      if (!parse_job_kind(v.as_string(), &spec.kind))
        throw JsonError("unknown job kind '" + v.as_string() + "'");
      return true;
    }
#define KMS_READ_STR(name, dflt)  \
  if (key == #name) {             \
    spec.name = v.as_string();    \
    return true;                  \
  }
    KMS_JOB_SPEC_STRING_FIELDS(KMS_READ_STR)
#undef KMS_READ_STR
#define KMS_READ_U64(name, dflt)  \
  if (key == #name) {             \
    spec.name = v.as_u64();       \
    return true;                  \
  }
    KMS_JOB_SPEC_U64_FIELDS(KMS_READ_U64)
#undef KMS_READ_U64
#define KMS_READ_I64(name, dflt)  \
  if (key == #name) {             \
    spec.name = v.as_i64();       \
    return true;                  \
  }
    KMS_JOB_SPEC_I64_FIELDS(KMS_READ_I64)
#undef KMS_READ_I64
#define KMS_READ_F64(name, dflt)  \
  if (key == #name) {             \
    spec.name = v.as_double();    \
    return true;                  \
  }
    KMS_JOB_SPEC_F64_FIELDS(KMS_READ_F64)
#undef KMS_READ_F64
#define KMS_READ_BOOL(name, dflt) \
  if (key == #name) {             \
    spec.name = v.as_bool();      \
    return true;                  \
  }
    KMS_JOB_SPEC_BOOL_FIELDS(KMS_READ_BOOL)
#undef KMS_READ_BOOL
    return false;
  });
  return spec;
}

std::string JobReport::to_json() const {
  std::string out = "{";
  bool first = true;
  append_key(&out, "schema", &first);
  json_append_quoted(&out, schema);
  append_key(&out, "exit_code", &first);
  out += std::to_string(exit_code);
#define KMS_EMIT(name, type, dflt)  \
  append_key(&out, #name, &first);  \
  append_value(&out, name);
  KMS_JOB_REPORT_FIELDS(KMS_EMIT)
#undef KMS_EMIT
#define KMS_EMIT(member, type, rule, ...)                                   \
  append_key(&out, KMS_COUNTER_STR(KMS_COUNTER_KEY(member, __VA_ARGS__)),  \
             &first);                                                       \
  append_value(&out, KMS_COUNTER_KEY(member, __VA_ARGS__));
  KMS_JOB_REPORT_COUNTERS(KMS_EMIT)
#undef KMS_EMIT
  append_key(&out, "diagnostics", &first);
  out.push_back('[');
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i > 0) out.push_back(',');
    json_append_quoted(&out, diagnostics[i]);
  }
  out.push_back(']');
  out.push_back('}');
  return out;
}

JobReport parse_job_report(const std::string& json_text) {
  Json doc;
  try {
    doc = Json::parse(json_text);
  } catch (const JsonError& e) {
    throw JobError(std::string("job report: ") + e.what());
  }
  if (!doc.is_object()) throw JobError("job report: expected a JSON object");
  check_schema(doc, "job report", kReportSchemaV1);
  JobReport rep;
  walk_object(doc, "job report", [&](const std::string& key, const Json& v) {
    if (key == "schema") {
      rep.schema = v.as_string();
      return true;
    }
    if (key == "exit_code") {
      rep.exit_code = static_cast<int>(v.as_i64());
      return true;
    }
    if (key == "diagnostics") {
      for (const Json& item : v.items())
        rep.diagnostics.push_back(item.as_string());
      return true;
    }
#define KMS_READ(name, type, dflt) \
  if (key == #name) {              \
    read_value(v, &rep.name);      \
    return true;                   \
  }
    KMS_JOB_REPORT_FIELDS(KMS_READ)
#undef KMS_READ
#define KMS_READ(member, type, rule, ...)                                  \
  if (key == KMS_COUNTER_STR(KMS_COUNTER_KEY(member, __VA_ARGS__))) {     \
    read_value(v, &rep.KMS_COUNTER_KEY(member, __VA_ARGS__));             \
    return true;                                                           \
  }
    KMS_JOB_REPORT_COUNTERS(KMS_READ)
#undef KMS_READ
    return false;
  });
  return rep;
}

std::uint64_t job_fingerprint(const JobSpec& spec,
                              std::uint64_t payload_digest) {
  JobSpec key = spec;
  key.client.clear();
  key.blif = "digest:" + std::to_string(payload_digest);
  key.blif_path.clear();
  return proof::digest_bytes(key.to_json());
}

}  // namespace kms::serve
