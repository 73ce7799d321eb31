// Durability layer unit + fuzz tests: WAL framing round-trips, torn-tail
// recovery at every byte boundary, bit-flip corruption (the reader must
// recover to the last intact record or reject with a precise error —
// never crash, never surface a tampered record), attach() truncation
// semantics, and the checkpoint / session-meta serialization round-trips
// the resume path depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/durable.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/session.hpp"
#include "src/recover/wal.hpp"
#include "tests/counter_table.hpp"
#include "tests/temp_path.hpp"

namespace kms::recover {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test case as its own concurrent process; the log
    // path must be distinct per case or parallel runs race on it.
    path_ = temp_path(
        std::string("wal_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".log");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, RoundTripsRecords) {
  const std::vector<std::string> payloads = {
      "step delete proof=3", "ckpt\nphase loop\n", std::string("x\0y", 3),
      std::string(5000, 'z')};
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(r.records[i].payload, payloads[i]);
}

TEST_F(WalTest, EmptyLogHasNoRecords) {
  { WalWriter::create(path_); }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(WalTest, MissingFileIsPreciseError) {
  const WalReadResult r = read_wal(path_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST_F(WalTest, MissingHeaderIsPreciseError) {
  spit(path_, "not a wal file\nwith some content\n");
  const WalReadResult r = read_wal(path_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("kms-wal v1"), std::string::npos);
}

TEST_F(WalTest, RejectsEmptyAndOversizedAppends) {
  WalWriter w = WalWriter::create(path_);
  EXPECT_THROW(w.append(""), std::runtime_error);
}

/// Truncate the log at EVERY byte boundary: the reader must surface
/// exactly the records whose frames fit intact, flag the torn tail, and
/// report the truncation offset — for all prefixes, without crashing.
TEST_F(WalTest, TruncationAtEveryByteRecoversPrefix) {
  const std::vector<std::string> payloads = {"alpha", "bravo-record",
                                             "charlie", "d"};
  std::vector<std::uint64_t> ends;  // end offset of each record
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const std::string full = slurp(path_);
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_TRUE(r.ok);
    for (const WalRecord& rec : r.records) ends.push_back(rec.end_offset);
  }
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(path_, full.substr(0, cut));
    const WalReadResult r = read_wal(path_);
    // Count how many whole records fit in the first `cut` bytes.
    std::size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    if (cut < sizeof(kWalMagic) - 1) {
      EXPECT_FALSE(r.ok) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(r.ok) << "cut=" << cut << ": " << r.error;
    ASSERT_EQ(r.records.size(), want) << "cut=" << cut;
    for (std::size_t i = 0; i < want; ++i)
      EXPECT_EQ(r.records[i].payload, payloads[i]);
    EXPECT_EQ(r.torn_tail, cut > (want == 0 ? sizeof(kWalMagic) - 1
                                            : ends[want - 1]))
        << "cut=" << cut;
    EXPECT_EQ(r.valid_bytes, want == 0 ? sizeof(kWalMagic) - 1
                                       : ends[want - 1]);
  }
}

/// Flip every bit of every byte in turn: the reader must never crash
/// and never surface a record with corrupted payload bytes — a flip in
/// record i's frame or payload ends the valid prefix at record i (flips
/// in the header reject the whole log; flips in a length field may
/// additionally swallow later records into one giant torn frame, which
/// is still a safe outcome).
TEST_F(WalTest, BitFlipNeverYieldsTamperedRecord) {
  const std::vector<std::string> payloads = {"first-payload", "second",
                                             "third-record-payload"};
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const std::string full = slurp(path_);
  std::vector<std::uint64_t> ends;
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_TRUE(r.ok);
    for (const WalRecord& rec : r.records) ends.push_back(rec.end_offset);
  }
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      spit(path_, mutated);
      const WalReadResult r = read_wal(path_);
      if (pos < sizeof(kWalMagic) - 1) {
        EXPECT_FALSE(r.ok) << "header flip at " << pos;
        continue;
      }
      ASSERT_TRUE(r.ok);
      // Which record does the flipped byte live in?
      std::size_t hit = 0;
      while (hit < ends.size() && ends[hit] <= pos) ++hit;
      // Every surfaced record must be byte-identical to the original —
      // in particular the flipped record must NOT be surfaced.
      ASSERT_LE(r.records.size(), hit) << "pos=" << pos << " bit=" << bit;
      for (std::size_t i = 0; i < r.records.size(); ++i)
        EXPECT_EQ(r.records[i].payload, payloads[i])
            << "pos=" << pos << " bit=" << bit;
      EXPECT_TRUE(r.torn_tail);
    }
  }
}

/// attach() truncates the discarded tail before appending, so a crash
/// can never resurrect dropped records behind new ones.
TEST_F(WalTest, AttachTruncatesDiscardedTail) {
  std::uint64_t keep_offset = 0;
  {
    WalWriter w = WalWriter::create(path_);
    w.append("keep-me");
    w.append("discard-me");
    w.append("discard-me-too");
    w.sync();
  }
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_EQ(r.records.size(), 3u);
    keep_offset = r.records[0].end_offset;
  }
  {
    WalWriter w = WalWriter::attach(path_, keep_offset);
    w.append("appended-after");
    w.sync();
  }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].payload, "keep-me");
  EXPECT_EQ(r.records[1].payload, "appended-after");
  EXPECT_FALSE(r.torn_tail);
}

TEST(AtomicWriteTest, ReplacesAtomically) {
  const std::string path = temp_path("atomic_write_test.txt");
  atomic_write_file(path, "first version");
  EXPECT_EQ(slurp(path), "first version");
  atomic_write_file(path, "second version, longer than the first");
  EXPECT_EQ(slurp(path), "second version, longer than the first");
  std::remove(path.c_str());
}

TEST(KillPointTest, CountThrowAndDisarm) {
  kill_points_configure(KillMode::kCount);
  kill_point("a");
  kill_point("b");
  EXPECT_EQ(kill_points_seen(), 2u);
  kill_points_configure(KillMode::kThrow, 2);
  kill_point("a");
  try {
    kill_point("b");
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected& e) {
    EXPECT_EQ(e.point(), "b");
  }
  kill_points_configure(KillMode::kOff);
  kill_point("c");  // disarmed: no throw
}

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.phase = "removal";
  c.cursor = 7;
  c.steps = 42;
  c.drat_certs = 5;
  c.net_digest = 0xdeadbeefcafef00dull;
  c.rng_state = "0123456789abcdef:fedcba9876543210:0000000000000001:"
                "00000000000000ff";
  c.stats = testing_counters::distinct_counters();
  return c;
}

TEST(CheckpointTest, RoundTripsExactly) {
  const Checkpoint c = sample_checkpoint();
  const std::string text = write_checkpoint(c);
  const Checkpoint d = read_checkpoint(text);
  EXPECT_EQ(write_checkpoint(d), text);
  EXPECT_EQ(d.phase, c.phase);
  EXPECT_EQ(d.cursor, c.cursor);
  EXPECT_EQ(d.steps, c.steps);
  EXPECT_EQ(d.drat_certs, c.drat_certs);
  EXPECT_EQ(d.net_digest, c.net_digest);
  EXPECT_EQ(d.rng_state, c.rng_state);
  testing_counters::expect_counters_equal(d.stats, c.stats, "checkpoint");
}

// Every counter of the table is one checkpoint key, kms.<member>,
// rm.<member> or atpg.<member>.
TEST(CheckpointTest, EveryCounterIsOneKey) {
  const std::string text = write_checkpoint(sample_checkpoint());
#define KMS_KEY(group, member) \
  EXPECT_NE(text.find(std::string("\n") + group + #member + " "), \
            std::string::npos)                                     \
      << group #member;
#define KMS_LOOP_KEY(member, ...) KMS_KEY("kms.", member)
#define KMS_REMOVAL_KEY(member, ...) KMS_KEY("rm.", member)
#define KMS_ATPG_KEY(member, ...) KMS_KEY("atpg.", member)
  KMS_LOOP_COUNTERS(KMS_LOOP_KEY)
  KMS_REMOVAL_COUNTERS(KMS_REMOVAL_KEY)
  KMS_ATPG_COUNTERS(KMS_ATPG_KEY)
#undef KMS_ATPG_KEY
#undef KMS_REMOVAL_KEY
#undef KMS_LOOP_KEY
#undef KMS_KEY
}

TEST(CheckpointTest, RejectsTampering) {
  const std::string text = write_checkpoint(sample_checkpoint());
  // Unknown key.
  EXPECT_THROW(read_checkpoint("bogus 1\n" + text), std::runtime_error);
  // Truncated (missing fields).
  EXPECT_THROW(read_checkpoint(text.substr(0, text.size() / 2)),
               std::runtime_error);
  // Bad phase.
  std::string bad = text;
  bad.replace(bad.find("phase removal"), 13, "phase nonsens");
  EXPECT_THROW(read_checkpoint(bad), std::runtime_error);
}

// Checkpoints written before loop speculation and the STA engine switch
// were removed carry keys no engine produces any more: rejected, not
// silently skipped.
TEST(CheckpointTest, RejectsRetiredSpeculationKeys) {
  const std::string text = write_checkpoint(sample_checkpoint());
  EXPECT_NO_THROW(read_checkpoint(text));
  EXPECT_EQ(text.find("kms.spec_"), std::string::npos);
  EXPECT_EQ(text.find("kms.sta_incremental"), std::string::npos);
  for (const char* key :
       {"kms.spec_batches", "kms.spec_solves", "kms.spec_cache_hits",
        "kms.spec_cache_insertions", "kms.spec_cache_invalidated",
        "kms.sta_incremental"})
    EXPECT_THROW(read_checkpoint(std::string(key) + " 0\n" + text),
                 std::runtime_error)
        << key;
}

// Checkpoints written while removal had a static pre-pass, or while the
// removal result kept its own copies of the solve counters, carry keys
// no engine produces any more: rejected, not silently skipped.
TEST(CheckpointTest, RejectsRetiredStaticAndCounterCopyKeys) {
  const std::string text = write_checkpoint(sample_checkpoint());
  EXPECT_NO_THROW(read_checkpoint(text));
  for (const char* key :
       {"static-certs", "rm.sat_queries", "rm.structural_shortcuts",
        "rm.static_discharged", "atpg.static_discharged"}) {
    EXPECT_EQ(text.find(std::string("\n") + key + " "), std::string::npos)
        << key;
    EXPECT_THROW(read_checkpoint(std::string(key) + " 0\n" + text),
                 std::runtime_error)
        << key;
  }
}

// Checkpoints written while the loop stats kept a copy of the removal
// count, a never-written path-cap flag, a count of decomposed complex
// gates, or the removal result a copy of the ATPG unknown count carry
// keys no engine produces any more; so does one that serialized the
// fault cache as a trailing "cache <bytes>" block.
TEST(CheckpointTest, RejectsDeletedCounterKeys) {
  const std::string text = write_checkpoint(sample_checkpoint());
  EXPECT_NO_THROW(read_checkpoint(text));
  for (const char* key :
       {"kms.redundancies_removed", "kms.path_cap_hit",
        "kms.decomposed_complex", "kms.sta_full_visits", "rm.unknown_queries",
        "cache"}) {
    EXPECT_EQ(text.find(std::string("\n") + key + " "), std::string::npos)
        << key;
    EXPECT_THROW(read_checkpoint(std::string(key) + " 0\n" + text),
                 std::runtime_error)
        << key;
  }
  EXPECT_THROW(read_checkpoint(text + "cache 26\n000000000000002a:0000001f\n"),
               std::runtime_error);
}

TEST(SessionMetaTest, RoundTripsExactly) {
  SessionMeta m;
  m.model = "carry skip adder";  // spaces survive (rest-of-line value)
  m.mode = "viability";
  m.order = "random";
  m.seed = 0x5EEDull;
  m.remove_remaining = false;
  m.max_iterations = 100000;
  m.checkpoint_every = 3;
  m.source_digest = 0x0123456789abcdefull;
  const std::string text = write_meta(m);
  const SessionMeta r = read_meta(text);
  EXPECT_EQ(write_meta(r), text);
  EXPECT_EQ(r.model, m.model);
  EXPECT_EQ(r.mode, "viability");
  EXPECT_EQ(r.order, "random");
  EXPECT_EQ(r.seed, m.seed);
  EXPECT_FALSE(r.remove_remaining);
  EXPECT_EQ(r.source_digest, m.source_digest);
}

TEST(SessionMetaTest, RejectsMalformedMeta) {
  const std::string text = write_meta(SessionMeta{});
  EXPECT_THROW(read_meta("bogus 1\n" + text), std::runtime_error);
  // The removal-engine switch and the static pre-pass are gone: their
  // keys are unknown now.
  EXPECT_THROW(read_meta("incremental 1\n" + text), std::runtime_error);
  EXPECT_EQ(text.find("static-prepass"), std::string::npos);
  EXPECT_THROW(read_meta("static-prepass 1\n" + text), std::runtime_error);
  // So are the fault-sim switch, the random word count, the delay
  // search's query cap (all constants of the engine now) and the job
  // count (the result does not depend on it): a session written by an
  // older build is rejected at resume.
  for (const std::string line :
       {"fault-sim 1", "random-words 8", "jobs 1", "max-queries 200000"}) {
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_EQ(text.find("\n" + key + " "), std::string::npos) << line;
    EXPECT_THROW(read_meta(line + "\n" + text), std::runtime_error) << line;
  }
  EXPECT_THROW(read_meta(text.substr(0, text.size() / 2)),
               std::runtime_error);
  std::string bad = text;
  bad.replace(bad.find("mode static"), 11, "mode plasma");
  EXPECT_THROW(read_meta(bad), std::runtime_error);
}

}  // namespace
}  // namespace kms::recover
