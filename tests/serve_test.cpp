// Job API unit suite (src/serve/): the schema-versioned JobSpec /
// JobReport JSON round trip, the strict parser, the job fingerprint the
// daemon's result cache is keyed by, the cache policy itself, and
// run_job() — the single engine entry point kmscli and kmsd share.
//
// The round-trip tests are property tests driven through the X-macro
// field tables from job.hpp: they enumerate exactly the fields the
// serializer does, so a field added to the struct but forgotten by the
// wire format is impossible by construction, and a randomized value in
// EVERY field must survive spec -> JSON -> spec byte-exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "src/base/governor.hpp"
#include "src/gen/adders.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/journal.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/job.hpp"
#include "src/serve/json.hpp"
#include "src/serve/runner.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "tests/counter_table.hpp"

namespace {

using namespace kms;
using namespace kms::serve;

// ---- minimal JSON engine ------------------------------------------------

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  const Json v = Json::parse(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"f":18446744073709551615}})");
  EXPECT_EQ(v.find("a")->as_u64(), 1u);
  EXPECT_DOUBLE_EQ(v.find("b")->as_double(), -2.5);
  EXPECT_EQ(v.find("c")->as_string(), "x\ny");
  EXPECT_EQ(v.find("d")->items().size(), 3u);
  EXPECT_TRUE(v.find("d")->items()[0].as_bool());
  // u64 extremes survive (the parser keeps the raw literal).
  EXPECT_EQ(v.find("e")->find("f")->as_u64(), UINT64_MAX);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "}", "{\"a\":}", "{\"a\":1,}", "[1,]", "{'a':1}",
        "{\"a\":01}", "{\"a\":1e}", "\"unterminated", "{\"a\":1}x",
        "{\"a\":+1}", "nul", "{\"a\":.5}"}) {
    EXPECT_THROW(Json::parse(bad), JsonError) << bad;
  }
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(JsonTest, QuotedStringsRoundTrip) {
  for (const std::string s :
       {std::string("plain"), std::string("quote\"back\\slash"),
        std::string("tab\tnl\ncr\r"), std::string("nul\x01\x1f bytes"),
        std::string("utf8 \xc3\xa9\xe2\x86\x92")}) {
    std::string quoted;
    json_append_quoted(&quoted, s);
    EXPECT_EQ(Json::parse(quoted).as_string(), s) << quoted;
  }
}

// ---- JobSpec round trip --------------------------------------------------

std::string fuzz_string(std::mt19937_64* rng) {
  static const char kAlphabet[] =
      "abcXYZ019 _-./\\\"\t\n{}[]:,\x01\x1f\x7f";
  std::uniform_int_distribution<int> len(0, 24);
  std::uniform_int_distribution<int> pick(0, sizeof kAlphabet - 2);
  std::string out;
  const int n = len(*rng);
  for (int i = 0; i < n; ++i) out.push_back(kAlphabet[pick(*rng)]);
  return out;
}

JobSpec fuzz_spec(std::mt19937_64* rng) {
  JobSpec spec;
  spec.kind = static_cast<JobKind>((*rng)() % 7);
#define KMS_FUZZ(name, dflt) spec.name = fuzz_string(rng);
  KMS_JOB_SPEC_STRING_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
#define KMS_FUZZ(name, dflt) spec.name = (*rng)();
  KMS_JOB_SPEC_U64_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
#define KMS_FUZZ(name, dflt) \
  spec.name = static_cast<std::int64_t>((*rng)());
  KMS_JOB_SPEC_I64_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
#define KMS_FUZZ(name, dflt) \
  spec.name = std::uniform_real_distribution<double>(-1e9, 1e9)(*rng);
  KMS_JOB_SPEC_F64_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
#define KMS_FUZZ(name, dflt) spec.name = ((*rng)() & 1) != 0;
  KMS_JOB_SPEC_BOOL_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
  return spec;
}

void fuzz_value(std::mt19937_64* rng, std::string* v) { *v = fuzz_string(rng); }
void fuzz_value(std::mt19937_64* rng, std::uint64_t* v) { *v = (*rng)(); }
void fuzz_value(std::mt19937_64* rng, double* v) {
  *v = std::uniform_real_distribution<double>(-1e9, 1e9)(*rng);
}
void fuzz_value(std::mt19937_64* rng, bool* v) { *v = ((*rng)() & 1) != 0; }

JobReport fuzz_report(std::mt19937_64* rng) {
  JobReport rep;
  rep.exit_code = static_cast<int>((*rng)() % 4);
#define KMS_FUZZ(name, type, dflt) fuzz_value(rng, &rep.name);
  KMS_JOB_REPORT_FIELDS(KMS_FUZZ)
#undef KMS_FUZZ
#define KMS_FUZZ(member, type, rule, ...) \
  fuzz_value(rng, &rep.KMS_COUNTER_KEY(member, __VA_ARGS__));
  KMS_JOB_REPORT_COUNTERS(KMS_FUZZ)
#undef KMS_FUZZ
  const int diags = static_cast<int>((*rng)() % 4);
  for (int i = 0; i < diags; ++i)
    rep.diagnostics.push_back(fuzz_string(rng));
  return rep;
}

TEST(JobSpecTest, DefaultSpecRoundTrips) {
  const JobSpec spec;
  EXPECT_EQ(parse_job_spec(spec.to_json()), spec);
}

TEST(JobSpecTest, EveryFieldSurvivesTheRoundTripFuzzed) {
  std::mt19937_64 rng(0x4b4d5331);  // fixed seed: deterministic suite
  for (int iter = 0; iter < 500; ++iter) {
    const JobSpec spec = fuzz_spec(&rng);
    const JobSpec back = parse_job_spec(spec.to_json());
    ASSERT_EQ(back, spec) << spec.to_json();
    // Canonical form is a fixed point.
    ASSERT_EQ(back.to_json(), spec.to_json());
  }
}

TEST(JobReportTest, EveryFieldSurvivesTheRoundTripFuzzed) {
  std::mt19937_64 rng(0x4b4d5332);
  for (int iter = 0; iter < 500; ++iter) {
    const JobReport rep = fuzz_report(&rng);
    const JobReport back = parse_job_report(rep.to_json());
    ASSERT_EQ(back, rep) << rep.to_json();
    ASSERT_EQ(back.to_json(), rep.to_json());
  }
}

// Every counter of the table, set to a distinct non-default value,
// survives a checkpoint, the copy into a JobReport and the report's JSON
// round trip, under its report key.
TEST(JobReportTest, EveryCounterSurvivesCheckpointReportAndJson) {
  recover::Checkpoint c;
  c.phase = "removal";
  c.stats = testing_counters::distinct_counters();
  const KmsStats restored =
      recover::read_checkpoint(recover::write_checkpoint(c)).stats;
  testing_counters::expect_counters_equal(restored, c.stats, "checkpoint");
  JobReport rep;
  fill_counters(restored, &rep);
  const JobReport back = parse_job_report(rep.to_json());
  EXPECT_EQ(back, rep);
#define KMS_EXPECT_KEY(member, type, rule, ...)                        \
  EXPECT_EQ(back.KMS_COUNTER_KEY(member, __VA_ARGS__), counters.member) \
      << KMS_COUNTER_STR(KMS_COUNTER_KEY(member, __VA_ARGS__));
  {
    const KmsStats& counters = c.stats;
    KMS_LOOP_COUNTERS(KMS_EXPECT_KEY)
  }
  {
    const RedundancyRemovalResult& counters = c.stats.removal;
    KMS_REMOVAL_COUNTERS(KMS_EXPECT_KEY)
  }
  {
    const AtpgStats& counters = c.stats.removal.atpg;
    KMS_ATPG_COUNTERS(KMS_EXPECT_KEY)
  }
#undef KMS_EXPECT_KEY
}

TEST(JobSpecTest, AllKindNamesRoundTrip) {
  for (int k = 0; k < 7; ++k) {
    JobSpec spec;
    spec.kind = static_cast<JobKind>(k);
    EXPECT_EQ(parse_job_spec(spec.to_json()).kind, spec.kind);
    JobKind parsed;
    ASSERT_TRUE(parse_job_kind(job_kind_name(spec.kind), &parsed));
    EXPECT_EQ(parsed, spec.kind);
  }
}

TEST(JobSpecTest, WrongOrMissingSchemaVersionIsRejected) {
  EXPECT_THROW(parse_job_spec(R"({"kind":"irr"})"), JobError);
  EXPECT_THROW(parse_job_spec(R"({"schema":"kms-job-v0","kind":"irr"})"),
               JobError);
  EXPECT_THROW(parse_job_spec(R"({"schema":"kms-job-v2","kind":"irr"})"),
               JobError);
  EXPECT_THROW(
      parse_job_report(R"({"schema":"kms-job-v1","exit_code":0})"),
      JobError);
  // The happy path, for contrast.
  EXPECT_NO_THROW(parse_job_spec(R"({"schema":"kms-job-v1","kind":"irr"})"));
}

TEST(JobSpecTest, UnknownKeysAndTypeMismatchesAreRejected) {
  EXPECT_THROW(
      parse_job_spec(R"({"schema":"kms-job-v1","kind":"irr","frob":1})"),
      JobError);
  EXPECT_THROW(
      parse_job_spec(R"({"schema":"kms-job-v1","kind":"irr","jobs":"4"})"),
      JobError);
  EXPECT_THROW(
      parse_job_spec(R"({"schema":"kms-job-v1","kind":"irr","check":1})"),
      JobError);
  EXPECT_THROW(parse_job_spec(R"({"schema":"kms-job-v1","kind":"nope"})"),
               JobError);
}

// The loop speculation width and the STA engine switch are gone; a spec
// still carrying either is rejected like any other unknown key.
TEST(JobSpecTest, RetiredEngineKeysAreRejected) {
  EXPECT_NO_THROW(parse_job_spec(R"({"schema":"kms-job-v1","kind":"irr"})"));
  EXPECT_THROW(parse_job_spec(
                   R"({"schema":"kms-job-v1","kind":"irr","speculate_k":1})"),
               JobError);
  EXPECT_THROW(parse_job_spec(
                   R"({"schema":"kms-job-v1","kind":"irr","sta":"full"})"),
               JobError);
  EXPECT_THROW(
      parse_job_spec(
          R"({"schema":"kms-job-v1","kind":"irr","sta":"incremental"})"),
      JobError);
  // --check runs the timing audit, and kind "certify" is the certified
  // irr job.
  EXPECT_THROW(parse_job_spec(
                   R"({"schema":"kms-job-v1","kind":"irr","audit_timing":true})"),
               JobError);
  EXPECT_THROW(parse_job_spec(
                   R"({"schema":"kms-job-v1","kind":"irr","certify":true})"),
               JobError);
}

TEST(JobSpecTest, ValidateCatchesContradictorySpecs) {
  JobSpec spec;
  EXPECT_EQ(spec.validate(), "no BLIF payload (blif or blif_path required)");
  spec.blif = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
  EXPECT_EQ(spec.validate(), "");
  spec.blif_path = "/tmp/x.blif";
  EXPECT_NE(spec.validate(), "");  // both payloads
  spec.blif_path.clear();
  spec.resume = "/tmp/dir";
  EXPECT_NE(spec.validate(), "");  // resume + payload
  spec.blif.clear();
  EXPECT_EQ(spec.validate(), "");
  spec.kind = JobKind::kAudit;
  EXPECT_NE(spec.validate(), "");  // resume is irr/certify-only
  spec = JobSpec();
  spec.blif = "x";
  spec.jobs = 5000;
  EXPECT_NE(spec.validate(), "");
}

// ---- fingerprint + cache -------------------------------------------------

TEST(JobFingerprintTest, TracksOptionsAndPayloadButNotIdentity) {
  JobSpec a;
  a.blif = "payload";
  const std::uint64_t digest = proof::digest_bytes(a.blif);
  JobSpec b = a;
  EXPECT_EQ(job_fingerprint(a, digest), job_fingerprint(b, digest));
  // Client identity and payload spelling (inline vs path) are not part
  // of the result; every result-affecting option is.
  b.client = "someone-else";
  EXPECT_EQ(job_fingerprint(a, digest), job_fingerprint(b, digest));
  b = a;
  b.blif.clear();
  b.blif_path = "/circuits/same-bytes.blif";
  EXPECT_EQ(job_fingerprint(a, digest), job_fingerprint(b, digest));
  b = a;
  b.mode = "viability";
  EXPECT_NE(job_fingerprint(a, digest), job_fingerprint(b, digest));
  b = a;
  b.check = true;
  EXPECT_NE(job_fingerprint(a, digest), job_fingerprint(b, digest));
  EXPECT_NE(job_fingerprint(a, digest), job_fingerprint(a, digest + 1));
}

TEST(ReportCacheTest, HitMarksCopyAndCountsAndEvictsLru) {
  ReportCache cache(2);
  JobSpec spec;
  spec.blif = "p";
  JobReport rep;
  rep.verdict = "ok";
  cache.insert(1, spec, rep);
  cache.insert(2, spec, rep);
  EXPECT_EQ(cache.size(), 2u);
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.lookups(), 1u);
  // 1 was just used; inserting 3 evicts 2.
  cache.insert(3, spec, rep);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
}

TEST(ReportCacheTest, OnlyDeterministicCompletedRunsAreCacheable) {
  JobSpec spec;
  spec.blif = "p";
  JobReport rep;
  EXPECT_TRUE(ReportCache::cacheable(spec, rep));
  JobReport bad = rep;
  bad.exit_code = 2;
  EXPECT_FALSE(ReportCache::cacheable(spec, bad));
  bad = rep;
  bad.degraded = true;
  EXPECT_FALSE(ReportCache::cacheable(spec, bad));
  bad = rep;
  bad.interrupted = true;
  EXPECT_FALSE(ReportCache::cacheable(spec, bad));
  bad = rep;
  bad.cache_hit = true;  // never re-cache a cache hit
  EXPECT_FALSE(ReportCache::cacheable(spec, bad));
  JobSpec timed = spec;
  timed.time_limit = 1.0;  // load-dependent outcome
  EXPECT_FALSE(ReportCache::cacheable(timed, rep));
  JobSpec resumed = spec;
  resumed.blif.clear();
  resumed.resume = "/tmp/dir";
  EXPECT_FALSE(ReportCache::cacheable(resumed, rep));
}

// ---- run_job -------------------------------------------------------------

constexpr const char kStatRed[] =
    ".model statred\n"
    ".inputs a0 b0 a1 b1\n"
    ".outputs y0 y1\n"
    ".names a0 b0 n5\n11 1\n"
    ".names n5 y0\n1 1\n"
    ".names a1 b1 n7\n11 1\n"
    ".names n7 y1\n1 1\n"
    ".end\n";

TEST(RunJobTest, InlineIrrJobReturnsResultAndDigests) {
  JobSpec spec;
  spec.kind = JobKind::kIrr;
  spec.blif = kStatRed;
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.exit_code, 0) << rep.error;
  EXPECT_EQ(rep.verdict, "ok");
  EXPECT_EQ(rep.kind, "irr");
  EXPECT_FALSE(rep.output_blif.empty());
  EXPECT_EQ(rep.input_digest, proof::digest_bytes(kStatRed));
  EXPECT_EQ(rep.output_digest, proof::digest_bytes(rep.output_blif));
  EXPECT_GT(rep.initial_gates, 0u);
  EXPECT_LE(rep.final_gates, rep.initial_gates);
  EXPECT_GT(rep.wall_seconds, 0.0);
  // Determinism: the same spec reproduces the same result bytes.
  ResourceGovernor governor2;
  const JobReport again = run_job(spec, governor2);
  EXPECT_EQ(again.output_blif, rep.output_blif);
  EXPECT_EQ(again.output_digest, rep.output_digest);
}

TEST(RunJobTest, CertifyKindForcesTheInProcessAudit) {
  JobSpec spec;
  spec.kind = JobKind::kCertify;
  spec.blif = kStatRed;
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.exit_code, 0) << rep.error;
  EXPECT_TRUE(rep.certified);
  EXPECT_FALSE(rep.certify_partial);
  EXPECT_GT(rep.steps_checked, 0u);
}

TEST(RunJobTest, DelayReportKeepsLongLinesWhole) {
  // A 64-bit carry-skip adder's critical path names far more than 512
  // bytes of gates; the report carries it whole, on its own line.
  const std::string blif = write_blif_string(carry_skip_adder(64, 4));
  JobSpec spec;
  spec.kind = JobKind::kDelay;
  spec.blif = blif;
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  ASSERT_EQ(rep.exit_code, 0) << rep.error;
  ASSERT_FALSE(rep.text.empty());
  EXPECT_EQ(rep.text.back(), '\n');
  const Network net = read_blif_sequential_string(blif).comb;
  const DelayReport r = computed_delay(net, SensitizationMode::kStatic);
  ASSERT_TRUE(r.witness.has_value());
  const std::string path = format_path(net, *r.witness);
  ASSERT_GT(path.size(), 512u);
  const std::string line = "critical path   : " + path + "\n";
  EXPECT_NE(rep.text.find(line), std::string::npos) << rep.text;
  std::istringstream lines(rep.text);
  std::size_t count = 0;
  for (std::string l; std::getline(lines, l); ++count)
    EXPECT_EQ(l.find("note:", 1), std::string::npos) << l.substr(0, 80);
  EXPECT_GE(count, 3u);
}

TEST(RunJobTest, InvalidSpecIsRejectedNotRun) {
  JobSpec spec;  // no payload
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.verdict, "rejected");
  EXPECT_EQ(rep.exit_code, 1);
  EXPECT_FALSE(rep.error.empty());
}

TEST(RunJobTest, PayloadlessStatsIsDaemonOnly) {
  JobSpec spec;
  spec.kind = JobKind::kStats;
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.verdict, "rejected");
  EXPECT_EQ(rep.exit_code, 1);
}

TEST(RunJobTest, BadPayloadIsAnErrorWithDiagnostic) {
  JobSpec spec;
  spec.kind = JobKind::kStats;
  spec.blif = "this is not blif\n";
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.verdict, "error");
  EXPECT_EQ(rep.exit_code, 2);
  EXPECT_FALSE(rep.error.empty());
}

TEST(RunJobTest, ReportRoundTripsThroughTheWireFormat) {
  JobSpec spec;
  spec.kind = JobKind::kAudit;
  spec.blif = kStatRed;
  ResourceGovernor governor;
  const JobReport rep = run_job(spec, governor);
  EXPECT_EQ(rep.exit_code, 0) << rep.error;
  EXPECT_GT(rep.audit_faults, 0u);
  const JobReport back = parse_job_report(rep.to_json());
  EXPECT_EQ(back, rep);
}

}  // namespace
