// ATPG substrate throughput: fault counts, fault-simulation drop rate,
// SAT ATPG speed and redundancy identification across the benchmark
// suite — the engine Section VI's "remove remaining redundancies in any
// order" leans on.
//
// Modes:
//   bench_atpg                      audit table (fault counts, drop
//                                   rates, solver throughput)
//   bench_atpg --jobs <n>           parallel-removal scaling table:
//                                   worker counts 1,2,4,... up to n on
//                                   each circuit; exits 2 unless every
//                                   thread count reproduces the
//                                   one-lane removed count and BLIF
//                                   digest bit-for-bit
//   bench_atpg --jobs <n> --quick   same, smallest circuit only (the CI
//                                   bench-smoke stage)
//
// The scaling table runs the production removal configuration: the
// random-pattern pre-drop, witness replay and the cross-pass cache all
// on, as in run_job. It still runs on a clone_compact() copy, whose
// fault order can differ from the network a production run sees.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/rng.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"

using namespace kms;

namespace {

void audit(const std::string& name, Network net) {
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(1);
  bench::Timer t_sim;
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (int w = 0; w < 16; ++w) {
    for (auto& x : pi) x = rng.next_u64();
    sim.detect_new(faults, pi, detected);
  }
  const double sim_secs = t_sim.seconds();
  std::size_t dropped = 0;
  for (bool d : detected)
    if (d) ++dropped;

  Atpg atpg(net);
  std::size_t redundant = 0;
  bench::Timer t_sat;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    if (!atpg.is_testable(faults[i])) ++redundant;
  }
  const double sat_secs = t_sat.seconds();
  const std::size_t sat_calls = faults.size() - dropped;
  std::printf("%-10s %7zu %7zu %7zu %7zu %9.3f %9.3f %10.0f\n",
              name.c_str(), net.count_gates(), faults.size(), dropped,
              redundant, sim_secs, sat_secs,
              sat_calls > 0 ? static_cast<double>(sat_calls) / sat_secs
                            : 0.0);
}

int run_audit_table() {
  std::printf(
      "ATPG engine: random-pattern drop + exact SAT on survivors\n");
  bench::rule('=');
  std::printf("%-10s %7s %7s %7s %7s %9s %9s %10s\n", "circuit", "gates",
              "faults", "dropped", "redund", "sim[s]", "sat[s]",
              "sat/sec");
  bench::rule();

  audit("csa 8.2", carry_skip_adder(8, 2));
  audit("csa 16.4", carry_skip_adder(16, 4));
  audit("rca 16", ripple_carry_adder(16));
  for (const SuiteSpec& spec : benchmark_suite())
    audit(spec.name, build_suite_circuit(spec));
  bench::rule();
  return 0;
}

// ---- parallel-removal scaling (--jobs) ------------------------------------

struct EngineRun {
  RedundancyRemovalResult r;
  double seconds = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a of the result's BLIF bytes
};

EngineRun run_engine(const Network& net, unsigned jobs) {
  Network copy = net.clone_compact();
  RedundancyRemovalOptions opts;
  opts.context.jobs = jobs;
  bench::Timer t;
  EngineRun run;
  run.r = remove_redundancies(copy, opts);
  run.seconds = t.seconds();
  run.digest = proof::digest_bytes(write_blif_string(copy));
  return run;
}

int run_scaling(unsigned max_jobs, bool quick) {
  std::vector<std::pair<std::string, Network>> circuits;
  circuits.emplace_back("csa_8_2", carry_skip_adder(8, 2));
  if (!quick) {
    circuits.emplace_back("csa_16_4", carry_skip_adder(16, 4));
    circuits.emplace_back("rca_16", ripple_carry_adder(16));
    for (const SuiteSpec& spec : benchmark_suite())
      circuits.emplace_back(spec.name, build_suite_circuit(spec));
  }
  std::vector<unsigned> job_counts{1};
  for (unsigned j = 2; j < max_jobs; j *= 2) job_counts.push_back(j);
  if (max_jobs > 1) job_counts.push_back(max_jobs);

  std::printf("parallel removal scaling (pre-drop off)\n");
  bench::rule('=');
  std::printf("%-12s %7s %7s %5s %8s %9s %8s %6s\n", "circuit", "gates",
              "faults", "jobs", "removed", "sec", "speedup", "match");
  bench::rule();
  bool failed = false;
  for (auto& [name, net] : circuits) {
    decompose_to_simple(net);
    const std::size_t gates = net.count_gates();
    const std::size_t faults = collapsed_faults(net).size();
    EngineRun base;
    for (const unsigned jobs : job_counts) {
      const EngineRun run = run_engine(net, jobs);
      if (jobs == 1) base = run;
      // The whole point of the commit protocol: every worker count
      // reproduces the one-lane result bit for bit.
      const bool match =
          run.r.removed == base.r.removed && run.digest == base.digest;
      if (!match) failed = true;
      std::printf("%-12s %7zu %7zu %5u %8zu %9.3f %7.2fx %6s\n",
                  name.c_str(), gates, faults, jobs, run.r.removed,
                  run.seconds,
                  run.seconds > 0 ? base.seconds / run.seconds : 0.0,
                  match ? "yes" : "NO");
    }
  }
  bench::rule();
  if (failed) {
    std::fprintf(stderr,
                 "bench_atpg: FAILED — a parallel run diverged from the "
                 "one-lane result\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  long long jobs = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      jobs = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || jobs < 1 || jobs > 1024) {
        std::fprintf(stderr, "bench_atpg: bad --jobs value\n");
        return 1;
      }
    } else {
      std::fprintf(stderr, "usage: bench_atpg [--jobs <n> [--quick]]\n");
      return 1;
    }
  }
  if (jobs >= 1) return run_scaling(static_cast<unsigned>(jobs), quick);
  return run_audit_table();
}
