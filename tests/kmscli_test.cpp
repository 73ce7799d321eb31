// End-to-end test of the kmscli tool: drives the real binary through
// the BLIF-in / BLIF-out flow a downstream user would script.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>

#include "src/atpg/atpg.hpp"
#include "src/cnf/encoder.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"
#include "tests/temp_path.hpp"

#ifndef KMSCLI_PATH
#error "KMSCLI_PATH must be defined by the build"
#endif

namespace kms {
namespace {

int run_cli(const std::string& args) {
  const std::string cmd = std::string(KMSCLI_PATH) + " " + args;
  return std::system(cmd.c_str());
}

/// Like run_cli but returns the tool's actual exit code (0..255).
int run_cli_status(const std::string& args) {
  const int raw = run_cli(args);
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

// The irr summary kmscli prints to stderr, formatted from the JobReport,
// is pinned byte for byte with its two timings masked: a counter that
// drifts between the engine, the report and the CLI shows here. csa_8_2
// runs the KMS loop before its removal passes; smisex2 runs removal
// only, 61 passes that hit the cross-pass fault cache.
TEST(KmscliTest, IrrStderrSummaryIsPinned) {
  struct Case {
    const char* name;
    Network net;
    const char* expected;
  };
  const Case cases[] = {
      {"csa_8_2", carry_skip_adder(8, 2),
       "gates 124 -> 169, delay 27.000 -> 14.000 (computed 17.000 -> "
       "14.000), 378 loop transforms, 47 removals\n"
       "removal: 48 passes, 53 sat queries (+0 structural), 5538 "
       "sim-dropped, 8 witness-dropped, 4144 cache hits (5184 "
       "invalidated), cone avg 125.6 max 444, sim *s sat *s\n"
       "timing: incremental sta, 378 repairs + 2 rebuilds touched 5708 "
       "gates\n"},
      {"smisex2", build_suite_circuit(suite_spec("smisex2")),
       "gates 140 -> 129, delay 5.000 -> 5.000 (computed 5.000 -> 5.000), "
       "0 loop transforms, 60 removals\n"
       "removal: 61 passes, 148 sat queries (+0 structural), 16729 "
       "sim-dropped, 1189 witness-dropped, 15737 cache hits (17336 "
       "invalidated), cone avg 78.6 max 126, sim *s sat *s\n"
       "timing: incremental sta, 0 repairs + 2 rebuilds touched 0 gates\n"},
  };
  const std::string in_path = temp_path("kmscli_pin.blif");
  const std::string err_path = temp_path("kmscli_pin.err");
  for (const Case& c : cases) {
    write_blif_file(c.net, in_path);
    ASSERT_EQ(run_cli_status("irr " + in_path + " --jobs 1 > /dev/null 2> " +
                             err_path),
              0)
        << c.name;
    std::ifstream in(err_path);
    const std::string err((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(std::regex_replace(err, std::regex("sim [0-9.]+s sat [0-9.]+s"),
                                 "sim *s sat *s"),
              c.expected)
        << c.name;
  }
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A lint job's findings are its text, printed once on stdout; stderr
// carries only diagnostics about the run itself.
TEST(KmscliTest, LintPrintsEachFindingOnce) {
  const std::string out_path = temp_path("kmscli_lint.out");
  const std::string err_path = temp_path("kmscli_lint.err");
  ASSERT_EQ(run_cli_status("lint " + std::string(EXAMPLES_DIR) +
                           "/statred.blif > " + out_path + " 2> " + err_path),
            0);
  EXPECT_EQ(slurp(out_path),
            "warning NL019: branch gate 0 'a0' (input) -> gate 4 'x0' (and) "
            "stuck-at-1 is statically untestable (blocked); connection "
            "replaceable by constant 1\n"
            "warning NL019: branch gate 0 'a0' (input) -> gate 5 'y0' (and) "
            "stuck-at-1 is statically untestable (blocked); connection "
            "replaceable by constant 1\n"
            "warning NL019: branch gate 2 'a1' (input) -> gate 6 'x1' (and) "
            "stuck-at-1 is statically untestable (blocked); connection "
            "replaceable by constant 1\n"
            "warning NL019: branch gate 2 'a1' (input) -> gate 7 'y1' (and) "
            "stuck-at-1 is statically untestable (blocked); connection "
            "replaceable by constant 1\n");
  EXPECT_EQ(slurp(err_path), "");
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
}

TEST(KmscliTest, UsageErrorOnNoArgs) {
  EXPECT_NE(run_cli("") & 0xFF00, 0);  // nonzero exit
}

TEST(KmscliTest, IrrProducesEquivalentIrredundantBlif) {
  // Prepare a redundant circuit on disk.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_in.blif");
  const std::string out_path = temp_path("kmscli_out.blif");
  write_blif_file(net, in_path);

  ASSERT_EQ(run_cli("irr " + in_path + " -o " + out_path + " 2>/dev/null"),
            0);

  Network result = read_blif_file(out_path);
  EXPECT_TRUE(exhaustive_equiv(net, result).equivalent);
  EXPECT_EQ(count_redundancies(result), 0u);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(KmscliTest, ViabilityModeAccepted) {
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_v.blif");
  const std::string out_path = temp_path("kmscli_v_out.blif");
  write_blif_file(net, in_path);
  ASSERT_EQ(run_cli("irr " + in_path + " -o " + out_path +
                    " --mode viability 2>/dev/null"),
            0);
  Network result = read_blif_file(out_path);
  EXPECT_TRUE(exhaustive_equiv(net, result).equivalent);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(KmscliTest, StatsAndDelayAndAuditRun) {
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_s.blif");
  write_blif_file(net, in_path);
  EXPECT_EQ(run_cli("stats " + in_path + " >/dev/null"), 0);
  EXPECT_EQ(run_cli("delay " + in_path + " >/dev/null"), 0);
  EXPECT_EQ(run_cli("audit " + in_path + " >/dev/null"), 0);
  std::remove(in_path.c_str());
}

TEST(KmscliTest, CheckFlagStaysCleanThroughIrr) {
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_chk.blif");
  const std::string out_path = temp_path("kmscli_chk_out.blif");
  write_blif_file(net, in_path);
  // --check runs the invariant checker on the input and after each
  // transform stage; a clean run must still exit 0.
  ASSERT_EQ(run_cli("irr " + in_path + " -o " + out_path +
                    " --check 2>/dev/null"),
            0);
  EXPECT_EQ(run_cli("stats " + in_path + " --check >/dev/null 2>&1"), 0);
  Network result = read_blif_file(out_path);
  EXPECT_TRUE(exhaustive_equiv(net, result).equivalent);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(KmscliTest, MissingFileFails) {
  EXPECT_NE(run_cli("stats /nonexistent.blif 2>/dev/null") & 0xFF00, 0);
}

TEST(KmscliTest, BadLimitArgumentsAreUsageErrors) {
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_lim.blif");
  write_blif_file(net, in_path);
  EXPECT_EQ(run_cli_status("irr " + in_path +
                           " --time-limit 0 >/dev/null 2>&1"), 1);
  EXPECT_EQ(run_cli_status("irr " + in_path +
                           " --time-limit abc >/dev/null 2>&1"), 1);
  EXPECT_EQ(run_cli_status("irr " + in_path +
                           " --conflict-limit -1 >/dev/null 2>&1"), 1);
  std::remove(in_path.c_str());
}

TEST(KmscliTest, RetiredEngineFlagsAreUnknown) {
  // --speculate-k and --sta selected engines that no longer exist;
  // --check now runs the timing audit --audit-timing asked for.
  Network net = carry_skip_adder(2, 2);
  const std::string in_path = temp_path("kmscli_retired.blif");
  const std::string err_path = temp_path("kmscli_retired.err");
  write_blif_file(net, in_path);
  for (const std::string flag : {"--speculate-k 1", "--sta full",
                                 "--sta incremental", "--audit-timing"}) {
    EXPECT_EQ(run_cli_status("irr " + in_path + " " + flag + " >/dev/null 2>" +
                             err_path),
              1)
        << flag;
    std::ifstream err(err_path);
    const std::string text((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("unknown flag '" + flag.substr(0, flag.find(' ')) +
                        "'"),
              std::string::npos)
        << text;
  }
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());
}

TEST(KmscliTest, CertifyIsOnlyForIrr) {
  // --certify makes an irr run the certify job; no other command has one.
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_certify.blif");
  const std::string err_path = temp_path("kmscli_certify.err");
  write_blif_file(net, in_path);
  EXPECT_EQ(run_cli_status("audit " + in_path + " --certify >/dev/null 2>" +
                           err_path),
            1);
  std::ifstream err(err_path);
  const std::string text((std::istreambuf_iterator<char>(err)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("flag '--certify' is only meaningful for irr"),
            std::string::npos)
      << text;
  EXPECT_EQ(run_cli_status("irr " + in_path + " --certify >/dev/null 2>" +
                           err_path),
            0);
  std::ifstream err2(err_path);
  const std::string summary((std::istreambuf_iterator<char>(err2)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(summary.find("certified: "), std::string::npos) << summary;
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());
}

TEST(KmscliTest, ZeroConflictBudgetDegradesButStaysEquivalent) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  ASSERT_GT(count_redundancies(net), 0u);
  const std::string in_path = temp_path("kmscli_cb.blif");
  const std::string out_path = temp_path("kmscli_cb_out.blif");
  write_blif_file(net, in_path);

  // No SAT verdict can be reached: exit 3 (degraded), output written,
  // nothing deleted — the redundancies are still there, the function
  // unchanged.
  EXPECT_EQ(run_cli_status("irr " + in_path + " -o " + out_path +
                           " --conflict-limit 0 2>/dev/null"),
            3);
  Network result = read_blif_file(out_path);
  EXPECT_TRUE(exhaustive_equiv(net, result).equivalent);
  EXPECT_GT(count_redundancies(result), 0u);

  // audit under the same budget: inconclusive, exit 3, no crash.
  EXPECT_EQ(run_cli_status("audit " + in_path +
                           " --conflict-limit 0 >/dev/null 2>&1"),
            3);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(KmscliTest, TimeLimitHonoredWithValidPartialOutput) {
  // Large enough that the KMS loop cannot finish in 0.3 s; the deadline
  // must stop it mid-flight with an equivalent partial network.
  Network net = carry_skip_adder(32, 4);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_tl.blif");
  const std::string out_path = temp_path("kmscli_tl_out.blif");
  write_blif_file(net, in_path);

  const auto t0 = std::chrono::steady_clock::now();
  const int status = run_cli_status("irr " + in_path + " -o " + out_path +
                                    " --time-limit 0.3 2>/dev/null");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(status, 3);
  // Acceptance bound is limit+10% on the tool's own clock; allow slack
  // here for process spawn, BLIF IO and the final equivalence queries.
  EXPECT_LT(elapsed, 5.0);

  Network result = read_blif_file(out_path);
  EXPECT_TRUE(sat_equivalent(net, result));  // 65 inputs: SAT, not sim
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(KmscliTest, DegradedRunNeverPrintsUnmarkedDelayIncrease) {
  // The deadline stops the loop mid-flight, so the final computed-delay
  // search cannot run and falls back to the topological bound of a
  // partly transformed network, above the initial computed delay. That
  // bound must be printed as one, never as a measured increase.
  Network net = carry_skip_adder(32, 4);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_bound.blif");
  const std::string err_path = temp_path("kmscli_bound.err");
  write_blif_file(net, in_path);
  EXPECT_EQ(run_cli_status("irr " + in_path + " -o /dev/null" +
                           " --time-limit 0.3 2>" + err_path),
            3);
  std::ifstream in(err_path);
  const std::string err((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::string tag = "(computed ";
  const std::size_t at = err.find(tag);
  ASSERT_NE(at, std::string::npos) << err;
  const std::string line = err.substr(at, err.find('\n', at) - at);
  const std::size_t arrow = line.find(" -> ");
  ASSERT_NE(arrow, std::string::npos) << line;
  const std::string before = line.substr(tag.size(), arrow - tag.size());
  const std::string after = line.substr(arrow + 4);
  const std::string bound = "(upper bound)";
  EXPECT_NE(after.find(bound), std::string::npos) << line;
  if (std::stod(after) > std::stod(before) + 1e-9) {
    EXPECT_NE(after.find(bound), std::string::npos)
        << "unmarked increase: " << line;
  }
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());
}

TEST(KmscliTest, SigintStopsGracefullyWithEquivalentOutput) {
  Network net = carry_skip_adder(32, 4);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmscli_sig.blif");
  const std::string out_path = temp_path("kmscli_sig_out.blif");
  write_blif_file(net, in_path);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: run the tool with stderr silenced.
    std::freopen("/dev/null", "w", stderr);
    execl(KMSCLI_PATH, "kmscli", "irr", in_path.c_str(), "-o",
          out_path.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  usleep(300 * 1000);  // let it get into the KMS loop
  ASSERT_EQ(kill(pid, SIGINT), 0);
  int raw = 0;
  ASSERT_EQ(waitpid(pid, &raw, 0), pid);
  ASSERT_TRUE(WIFEXITED(raw));
  // 3 = interrupted mid-run (the expected case); 0 would mean the run
  // finished before the signal landed — legal, but the output contract
  // below must hold either way.
  EXPECT_TRUE(WEXITSTATUS(raw) == 3 || WEXITSTATUS(raw) == 0)
      << "exit " << WEXITSTATUS(raw);

  Network result = read_blif_file(out_path);
  EXPECT_TRUE(sat_equivalent(net, result));
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
}  // namespace kms
