// End-to-end test of the kmslint tool: lints real BLIF files through the
// real binary and asserts exit codes, rule ids and line numbers — the
// contract scripts depend on.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/temp_path.hpp"

#ifndef KMSLINT_PATH
#error "KMSLINT_PATH must be defined by the build"
#endif
#ifndef EXAMPLES_DIR
#error "EXAMPLES_DIR must be defined by the build"
#endif

namespace kms {
namespace {

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs kmslint, returns its exit code; stderr+stdout land in `capture`.
/// The capture file is named after the running test, so tests run in
/// parallel processes never share one.
int run_lint(const std::string& args, std::string* capture = nullptr) {
  const std::string cap =
      temp_path(std::string("kmslint_cap_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                ".txt");
  const std::string cmd =
      std::string(KMSLINT_PATH) + " " + args + " > " + cap + " 2>&1";
  const int status = std::system(cmd.c_str());
  if (capture) *capture = slurp(cap);
  std::remove(cap.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const char kCleanBlif[] =
    ".model clean\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b y\n"
    "11 1\n"
    ".end\n";

// `dead1` feeds nothing: its cone is an orphan (NL013) and the checker
// should name the gate.
const char kOrphanBlif[] =
    ".model orphan\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b y\n"
    "11 1\n"
    ".names a b dead1\n"
    "10 1\n"
    ".end\n";

// Three literals in the input plane for a two-input node — a parse error
// on (physical) line 5.
const char kMalformedBlif[] =
    ".model broken\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b y\n"
    "111 1\n"
    ".end\n";

TEST(KmslintTest, UsageErrorOnNoArgs) {
  EXPECT_EQ(run_lint(""), 1);
}

TEST(KmslintTest, FlagsALintJobRejectsAreUsageErrors) {
  const std::string path = temp_path("lint_usage.blif");
  write_file(path, kCleanBlif);
  std::string out;
  EXPECT_EQ(run_lint("--json --emit-proof " + temp_path("lint_dir") + " " +
                         path,
                     &out),
            1);
  EXPECT_NE(out.find("kmslint: emit_proof is only meaningful"),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("{\"file\""), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(KmslintTest, CleanFileExitsZero) {
  const std::string path = temp_path("lint_clean.blif");
  write_file(path, kCleanBlif);
  std::string out;
  EXPECT_EQ(run_lint(path, &out), 0);
  EXPECT_NE(out.find("clean"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(KmslintTest, ParseErrorNamesRuleAndLine) {
  const std::string path = temp_path("lint_broken.blif");
  write_file(path, kMalformedBlif);
  std::string out;
  EXPECT_EQ(run_lint(path, &out), 2);
  EXPECT_NE(out.find("NL900"), std::string::npos) << out;
  EXPECT_NE(out.find("line 5"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(KmslintTest, OrphanConeIsWarningUnlessStrict) {
  const std::string path = temp_path("lint_orphan.blif");
  write_file(path, kOrphanBlif);

  std::string out;
  EXPECT_EQ(run_lint(path, &out), 0);  // warnings alone don't fail
  EXPECT_NE(out.find("NL013"), std::string::npos) << out;
  EXPECT_NE(out.find("dead1"), std::string::npos) << out;

  EXPECT_EQ(run_lint("--strict " + path, &out), 2);
  EXPECT_NE(out.find("NL013"), std::string::npos) << out;

  // --no-warn suppresses the finding entirely.
  EXPECT_EQ(run_lint("--strict --no-warn " + path, &out), 0);
  EXPECT_EQ(out.find("NL013"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(KmslintTest, JsonReportIsStructured) {
  const std::string path = temp_path("lint_json.blif");
  write_file(path, kOrphanBlif);
  std::string out;
  EXPECT_EQ(run_lint("--json " + path, &out), 0);
  EXPECT_NE(out.find("\"file\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"rule\":\"NL013\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"warnings\":"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(KmslintTest, ListRulesPrintsTable) {
  std::string out;
  EXPECT_EQ(run_lint("--list-rules", &out), 0);
  EXPECT_NE(out.find("NL001"), std::string::npos) << out;
  EXPECT_NE(out.find("NL900"), std::string::npos) << out;
}

TEST(KmslintTest, MissingFileFails) {
  std::string out;
  EXPECT_EQ(run_lint(temp_path("no_such_file.blif"), &out), 2);
  EXPECT_NE(out.find("NL900"), std::string::npos) << out;
}

TEST(KmslintTest, MultipleFilesAggregateExitCode) {
  const std::string good = temp_path("lint_multi_good.blif");
  const std::string bad = temp_path("lint_multi_bad.blif");
  write_file(good, kCleanBlif);
  write_file(bad, kMalformedBlif);
  std::string out;
  EXPECT_EQ(run_lint(good + " " + bad, &out), 2);
  EXPECT_NE(out.find("NL900"), std::string::npos) << out;
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// kmslint's exact bytes on the shipped examples, a parse error and a
// missing file: stdout, stderr and exit code, recorded from the build
// whose kmslint ran its own copy of the checker, analysis and timing
// rules, before it became a client of the lint job. Paths are relative
// (the run's working directory holds copies of the inputs), so the
// bytes do not depend on where the test runs.
TEST(KmslintTest, OutputBytesArePinned) {
  struct Case {
    const char* args;
    int exit_code;
    const char* out;
    const char* err;
  };
  const Case cases[] = {
    {"counter2.blif fulladder.blif parity4.blif statred.blif", 0,
     "",
     "counter2.blif: clean (29 rules)\n"
     "fulladder.blif: clean (29 rules)\n"
     "parity4.blif: clean (29 rules)\n"
     "statred.blif: warning NL019: branch gate 0 'a0' (input) -> gate 4 "
     "'x0' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 0 'a0' (input) -> gate 5 "
     "'y0' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 2 'a1' (input) -> gate 6 "
     "'x1' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 2 'a1' (input) -> gate 7 "
     "'y1' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"},
    {"--strict statred.blif", 2,
     "",
     "statred.blif: warning NL019: branch gate 0 'a0' (input) -> gate 4 "
     "'x0' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 0 'a0' (input) -> gate 5 "
     "'y0' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 2 'a1' (input) -> gate 6 "
     "'x1' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"
     "statred.blif: warning NL019: branch gate 2 'a1' (input) -> gate 7 "
     "'y1' (and) stuck-at-1 is statically untestable (blocked); "
     "connection replaceable by constant 1\n"},
    {"--no-warn statred.blif", 0,
     "",
     "statred.blif: clean (29 rules)\n"},
    {"bad.blif", 2,
     "",
     "bad.blif: line 5: error NL900: cover width mismatch: 111 1\n"},
    {"missing.blif", 2,
     "",
     "missing.blif: error NL900: cannot open missing.blif\n"},
    {"--json statred.blif bad.blif missing.blif", 2,
     "[{\"file\":\"statred.blif\","
     "\"report\":{\"diagnostics\":[{\"rule\":\"NL019\","
     "\"severity\":\"warning\",\"message\":\"branch gate 0 'a0' (input) "
     "-> gate 4 'x0' (and) stuck-at-1 is statically untestable "
     "(blocked); connection replaceable by constant "
     "1\",\"conn\":0},{\"rule\":\"NL019\",\"severity\":\"warning\","
     "\"message\":\"branch gate 0 'a0' (input) -> gate 5 'y0' (and) "
     "stuck-at-1 is statically untestable (blocked); connection "
     "replaceable by constant "
     "1\",\"conn\":2},{\"rule\":\"NL019\",\"severity\":\"warning\","
     "\"message\":\"branch gate 2 'a1' (input) -> gate 6 'x1' (and) "
     "stuck-at-1 is statically untestable (blocked); connection "
     "replaceable by constant "
     "1\",\"conn\":4},{\"rule\":\"NL019\",\"severity\":\"warning\","
     "\"message\":\"branch gate 2 'a1' (input) -> gate 7 'y1' (and) "
     "stuck-at-1 is statically untestable (blocked); connection "
     "replaceable by constant "
     "1\",\"conn\":6}],\"errors\":0,\"warnings\":4,"
     "\"truncated\":false}},{\"file\":\"bad.blif\","
     "\"report\":{\"diagnostics\":[{\"rule\":\"NL900\","
     "\"severity\":\"error\",\"message\":\"cover width mismatch: 111 "
     "1\",\"line\":5}],\"errors\":1,\"warnings\":0,"
     "\"truncated\":false}},{\"file\":\"missing.blif\","
     "\"report\":{\"diagnostics\":[{\"rule\":\"NL900\","
     "\"severity\":\"error\",\"message\":\"cannot open "
     "missing.blif\"}],\"errors\":1,\"warnings\":0,"
     "\"truncated\":false}}]\n",
     ""},
    {"--json --no-warn fulladder.blif", 0,
     "[{\"file\":\"fulladder.blif\",\"report\":{\"diagnostics\":[],"
     "\"errors\":0,\"warnings\":0,\"truncated\":false}}]\n",
     ""},
  };
  namespace fs = std::filesystem;
  const fs::path dir = temp_path("kmslint_pinned");
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name :
       {"counter2.blif", "fulladder.blif", "parity4.blif", "statred.blif"})
    fs::copy_file(fs::path(EXAMPLES_DIR) / name, dir / name);
  write_file((dir / "bad.blif").string(), kMalformedBlif);
  const std::string out = (dir / "stdout.txt").string();
  const std::string err = (dir / "stderr.txt").string();
  for (const Case& c : cases) {
    const std::string cmd = "cd " + dir.string() + " && " + KMSLINT_PATH +
                            " " + c.args + " > " + out + " 2> " + err;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << c.args;
    EXPECT_EQ(WEXITSTATUS(status), c.exit_code) << c.args;
    EXPECT_EQ(slurp(out), c.out) << c.args;
    EXPECT_EQ(slurp(err), c.err) << c.args;
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace kms
