// End-to-end benchmark driver for run_job(), the engine entry point
// behind `kmscli irr` and kmsd.
//
//   e2e_driver --workload csa|certify --seed N --seconds S
//              --trace 0|1 --check-dir DIR
//
// Each workload is a fixed list of circuits. The seed draws the
// presentation every job payload arrives in: the order of the .inputs,
// the .outputs and the .names blocks of its BLIF. The parser numbers
// gates in that order, so a new seed gives the engine a different
// netlist (gate ids, path tie-breaks, fault order) of the same circuit,
// while the cost of the corpus stays comparable from seed to seed.
//
// Set-up builds the job payloads: the circuit generators, the BLIF
// writer and the seeded shuffle. No job runs during set-up; the first
// round of the measured loop gives the reference outputs.
//
// --trace 0 times whole run_job() calls round-robin over the corpus for
// S seconds and reports each circuit's fastest job and setup_s; run.py
// runs one such driver per CPU at once and derives latency_ms from them
// all. --trace 1 instead makes the calls run_job makes (parse,
// decompose, KMS loop, removal phase, proof check, write) one by one
// with a span around each, and reports
// per-layer times plus the work counters of run_job's own reports.
// Every time comes from those production calls: the removal phase
// splits its own time into fault simulation and ATPG SAT, and
// removal_other is the rest of it (per-pass fault collapsing, the
// static pre-pass, ATPG set-up and commits).
//
// Where layer times should show end to end: the removal phase is most
// of every job, so it moves latency_ms on both workloads; so does the
// KMS loop, on the csa circuits; the proof check moves certify alone;
// setup_s moves only with the circuit generators (the MCNC
// generator's area optimization includes a removal phase), the BLIF
// writer and the shuffle.
//
// Either way the driver checks what the engine's own reports can show
// (verdict, output identical across repetitions, computed delay not
// increased, output fully testable per an audit job) and writes each
// input/output BLIF pair to DIR so run.py can check functional
// equivalence with its own evaluator. The last stdout line is one JSON
// object; run.py turns it into the benchmark's result line.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/serve/job.hpp"
#include "src/serve/runner.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using kms::serve::JobKind;
using kms::serve::JobReport;
using kms::serve::JobSpec;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the payloads must be a pure function of the seed on any
/// standard library, so no <random> engines or distributions.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[next() % i]);
  }

 private:
  std::uint64_t s_;
};

struct Shape {
  std::string name;
  std::function<kms::Network()> build;
};

kms::Network csa(std::size_t bits, std::size_t block) {
  return kms::carry_skip_adder(bits, block);
}

kms::Network suite(const char* name) {
  return kms::build_suite_circuit(kms::suite_spec(name));
}

// The workloads. Each job takes milliseconds to a few hundred, so a run
// repeats every presentation of every circuit many times. Sizes whose
// jobs take seconds (csa 8.2, csa 12.4, sduke2, smisex2, sclip) are left
// out: in eight presentations one of them would fill several seconds of
// each round, and a run would time each presentation only a handful of
// times, too few for a steady figure.
//  * csa: carry-skip adders, the paper's motivating family. Their
//    longest paths are false, so the KMS loop (path enumeration,
//    sensitization SAT, duplication, STA repair) runs before the
//    removal phase; it is about a fifth of a job, removal the rest.
//  * certify: irr with the in-process proof audit on three of those
//    adders and three Table-I MCNC substitutes, so every transformation
//    is journalled with a DRAT certificate and checked: the proof layer
//    that csa bypasses. As BLIF payloads (unit gate delays, no late
//    input) the MCNC substitutes have no false longest path, so the
//    loop exits at once and the removal phase (fault collapsing,
//    random-pattern simulation, static pass, ATPG SAT) is the whole job.
std::vector<Shape> workload_shapes(const std::string& workload) {
  if (workload == "csa")
    return {{"csa4.2", [] { return csa(4, 2); }},
            {"csa5.2", [] { return csa(5, 2); }},
            {"csa6.2", [] { return csa(6, 2); }},
            {"csa4.4", [] { return csa(4, 4); }},
            {"csa6.3", [] { return csa(6, 3); }},
            {"csa7.3", [] { return csa(7, 3); }},
            {"csa8.4", [] { return csa(8, 4); }}};
  if (workload == "certify")
    return {{"csa4.2", [] { return csa(4, 2); }},
            {"csa6.3", [] { return csa(6, 3); }},
            {"csa8.4", [] { return csa(8, 4); }},
            {"smisex1", [] { return suite("smisex1"); }},
            {"ssao2", [] { return suite("ssao2"); }},
            {"sz4ml", [] { return suite("sz4ml"); }}};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// Reorder the signal lists and the node blocks of a BLIF text as
/// written by write_blif (no continuation lines, one .names block per
/// node). The function is unchanged: every block keeps its own lines.
std::string shuffle_blif(const std::string& text, SeedRng& rng) {
  const std::string_view all(text);
  std::string_view model;
  std::vector<std::string_view> inputs, outputs, blocks;
  // A block is the text from its .names line to the next directive.
  std::size_t block_start = std::string_view::npos;
  auto close_block = [&](std::size_t at) {
    if (block_start != std::string_view::npos)
      blocks.push_back(all.substr(block_start, at - block_start));
    block_start = std::string_view::npos;
  };
  for (std::size_t pos = 0; pos < all.size();) {
    const std::size_t start = pos;
    const std::size_t nl = std::min(all.find('\n', pos), all.size());
    const std::string_view line = all.substr(start, nl - start);
    pos = nl + 1;
    if (line.starts_with(".model")) {
      model = line;
    } else if (line.starts_with(".inputs") || line.starts_with(".outputs")) {
      auto& list = line[1] == 'i' ? inputs : outputs;
      std::size_t at = line.find(' ');
      while (at != std::string_view::npos) {
        const std::size_t end = line.find(' ', at + 1);
        list.push_back(line.substr(at + 1, end - at - 1));
        at = end;
      }
    } else if (line.starts_with(".names")) {
      close_block(start);
      block_start = start;
    } else if (line == ".end" || line.empty()) {
      close_block(start);
    } else if (line[0] == '.' || block_start == std::string_view::npos) {
      throw std::runtime_error("unexpected BLIF line: " + std::string(line));
    }
  }
  close_block(all.size());
  rng.shuffle(inputs);
  rng.shuffle(outputs);
  rng.shuffle(blocks);
  std::string out;
  out.reserve(text.size() + 16);
  (out += model) += "\n.inputs";
  for (const std::string_view s : inputs) (out += ' ') += s;
  out += "\n.outputs";
  for (const std::string_view s : outputs) (out += ' ') += s;
  out += "\n";
  for (const std::string_view b : blocks) out += b;
  out += ".end\n";
  return out;
}

struct Circuit {
  std::string name;
  std::string blif;

  bool operator==(const Circuit&) const = default;
};

// How a presentation falls changes a job's work by up to ~15% (other
// tie-breaks, other fault order), so one presentation per circuit makes
// the corpus cost swing from seed to seed. Each circuit therefore
// arrives in eight presentations, and the metrics average over them.
constexpr int kPresentations = 8;

std::vector<Circuit> make_corpus(const std::vector<Shape>& shapes,
                                 std::uint64_t seed) {
  SeedRng rng(seed);
  std::vector<Circuit> corpus;
  for (const Shape& s : shapes) {
    kms::Network net = s.build();
    net.set_name(s.name);
    const std::string blif = kms::write_blif_string(net);
    for (int k = 0; k < kPresentations; ++k)
      corpus.push_back(
          {s.name + "#" + std::to_string(k), shuffle_blif(blif, rng)});
  }
  return corpus;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Outcome bookkeeping shared by both modes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// One checked job: the report must be "ok" and, when a reference is
/// given, carry byte-identical output.
JobReport run_checked(const Circuit& c, JobKind kind, Tally* tally,
                      const JobReport* ref, double* seconds) {
  JobSpec spec;  // production defaults
  spec.kind = kind;
  spec.client = "e2ebench";
  spec.blif = c.blif;
  kms::ResourceGovernor gov;
  const auto t0 = Clock::now();
  JobReport rep = kms::serve::run_job(spec, gov);
  if (seconds != nullptr) *seconds = since(t0);
  ++tally->attempted;
  if (rep.verdict != "ok" || rep.exit_code != 0)
    tally->fail(c.name + ": verdict " + rep.verdict + " " + rep.error);
  else if (ref != nullptr && (rep.output_digest != ref->output_digest ||
                              rep.output_blif != ref->output_blif))
    tally->fail(c.name + ": output differs between repetitions");
  return rep;
}

/// Checks on the reference run of one circuit that need no second
/// implementation: the paper's delay guarantee, the certificate check
/// of a certify job, and full testability of the result (by an audit
/// job on the output BLIF).
void check_reference(const Circuit& c, JobKind kind, const JobReport& rep,
                     Tally* tally) {
  if (rep.verdict != "ok") return;  // already counted
  if (rep.final_computed_delay > rep.initial_computed_delay + 1e-9)
    tally->fail(c.name + ": computed delay increased");
  if (kind == JobKind::kCertify && (!rep.certified || rep.certify_partial))
    tally->fail(c.name + ": proof not fully certified");
  if (rep.output_blif.empty()) {
    tally->fail(c.name + ": no output netlist in the report");
    return;
  }
  JobSpec audit;
  audit.kind = JobKind::kAudit;
  audit.client = "e2ebench";
  audit.blif = rep.output_blif;
  kms::ResourceGovernor gov;
  const JobReport a = kms::serve::run_job(audit, gov);
  if (a.verdict != "ok" || a.audit_redundant != 0 || a.audit_unknown != 0)
    tally->fail(c.name + ": output not fully testable (" + a.verdict +
                ", " + std::to_string(a.audit_redundant) + " redundant)");
}

// ---- per-layer pipeline (--trace 1) ---------------------------------

struct LayerRun {
  std::map<std::string, double> seconds;  ///< span name -> duration
  std::size_t sensitization_queries = 0;
  std::size_t certificates = 0;
  std::uint64_t output_digest = 0;
};

/// One job, layer by layer: the calls run_job's irr path makes for a
/// plain job (no artifacts, no invariant checks), except that the KMS
/// loop and the removal phase, which kms_make_irredundant runs back to
/// back, are called one after the other so each gets its own span.
/// `certify` adds the proof session and its check, as a certify job
/// does.
LayerRun run_layers(const Circuit& c, bool certify) {
  LayerRun out;
  kms::ResourceGovernor gov;
  auto span = [&out](const char* name, auto&& body) {
    const auto t0 = Clock::now();
    body();
    out.seconds[name] += since(t0);
  };
  kms::BlifSequential model;
  span("parse", [&] { model = kms::read_blif_sequential_string(c.blif); });
  kms::Network& net = model.comb;
  kms::proof::ProofSession session;
  std::string proof_input;
  if (certify) {
    proof_input = kms::write_blif_string(net);
    session.journal.set_model(net.name());
    session.journal.set_input_digest(kms::proof::digest_bytes(proof_input));
  }
  span("decompose", [&] { kms::decompose_to_simple(net); });
  kms::KmsOptions opts;
  opts.context.governor = &gov;
  opts.context.session = certify ? &session : nullptr;
  opts.remove_remaining = false;
  span("kms_loop", [&] {
    out.sensitization_queries =
        kms::kms_make_irredundant(net, opts).sensitization_queries;
  });
  kms::RedundancyRemovalResult removal;
  span("removal", [&] {
    kms::RedundancyRemovalOptions ropts = opts.removal;
    ropts.context = opts.context;
    removal = kms::remove_redundancies(net, ropts);
  });
  // The removal phase's own split of its time. What it does not cover
  // is per-pass fault collapsing, the static pre-pass, ATPG set-up and
  // the commits.
  out.seconds["fault_sim"] = removal.sim_seconds;
  out.seconds["atpg_sat"] = removal.sat_seconds;
  out.seconds["removal_other"] =
      out.seconds["removal"] - removal.sim_seconds - removal.sat_seconds;
  if (certify) {
    const std::string proof_output = kms::write_blif_string(net);
    session.journal.set_output_digest(kms::proof::digest_bytes(proof_output));
    span("proof_check", [&] {
      const kms::proof::VerifyReport v =
          kms::proof::verify_session(session, proof_input, proof_output);
      if (!v) throw std::runtime_error(c.name + ": layered proof check failed");
      out.certificates = v.certificates_checked;
    });
  }
  std::string bytes;
  span("write", [&] {
    std::ostringstream ss;
    kms::write_blif_sequential(net, model.latch_init.size(), model.latch_init,
                               ss);
    bytes = ss.str();
  });
  out.output_digest = certify ? kms::proof::digest_bytes(
                                    kms::write_blif_string(net))
                              : kms::proof::digest_bytes(bytes);
  return out;
}

// ---- output ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return o;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics,
                  const std::vector<std::string>& circuit_lines) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << tally.attempted
    << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  o << "}, \"errors\": [";
  for (std::size_t i = 0; i < tally.errors.size(); ++i)
    o << (i ? ", " : "") << "\"" << json_escape(tally.errors[i]) << "\"";
  o << "], \"circuits\": [";
  for (std::size_t i = 0; i < circuit_lines.size(); ++i)
    o << (i ? ", " : "") << circuit_lines[i];
  o << "]}";
  std::printf("%s\n", o.str().c_str());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!(f << bytes)) throw std::runtime_error("cannot write " + path);
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_driver --workload csa|certify --seed N "
               "--seconds S --trace 0|1 --check-dir DIR\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, check_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  if (argc % 2 != 1) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(val.c_str());
    else if (flag == "--trace") trace = std::atoi(val.c_str());
    else if (flag == "--check-dir") check_dir = val;
    else return usage();
  }
  if (workload.empty() || check_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage();

  try {
    const std::vector<Shape> shapes = workload_shapes(workload);
    const JobKind kind =
        workload == "certify" ? JobKind::kCertify : JobKind::kIrr;

    // Set-up: build the circuits and serialize them to job payloads.
    // One set-up takes under a millisecond for csa but most of a second
    // for certify, whose MCNC substitutes come from a generator that
    // runs an area optimization with redundancy removal. It is repeated
    // for at least two seconds, and setup_s is the median. Every
    // repetition must give the same payloads.
    std::vector<double> setup_times;
    std::vector<Circuit> corpus;
    const auto setup_start = Clock::now();
    for (int rep = 0; rep == 0 || since(setup_start) < 2.0; ++rep) {
      const auto t0 = Clock::now();
      std::vector<Circuit> built = make_corpus(shapes, seed);
      setup_times.push_back(since(t0));
      if (rep == 0) corpus = std::move(built);
      else if (built != corpus)
        throw std::runtime_error("set-up gave different payloads");
    }

    // The reference report of each circuit, its first job; every later
    // repetition must reproduce its output byte for byte.
    Tally tally;
    std::vector<JobReport> refs;
    std::vector<Metric> metrics;
    std::vector<std::string> circuit_lines;
    const auto start = Clock::now();
    if (trace == 0) {
      std::vector<std::vector<double>> lat(corpus.size());
      for (std::size_t round = 0; round == 0 || since(start) < seconds;
           ++round) {
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          double s = 0;
          JobReport rep = run_checked(corpus[i], kind, &tally,
                                      round == 0 ? nullptr : &refs[i], &s);
          lat[i].push_back(s);
          if (round == 0) refs.push_back(std::move(rep));
        }
      }
      // Each circuit's fastest job, with all its digits: run.py takes
      // the fastest over its concurrent drivers and turns that into
      // latency_ms.
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        std::ostringstream line;
        line.precision(17);
        line << "{\"name\": \"" << corpus[i].name << "\", \"gates\": "
             << refs[i].initial_gates << ", \"fastest_ms\": "
             << 1e3 * *std::min_element(lat[i].begin(), lat[i].end())
             << ", \"median_ms\": " << 1e3 * median(lat[i])
             << ", \"reps\": " << lat[i].size() << "}";
        circuit_lines.push_back(line.str());
      }
      metrics.push_back({"setup_s", median(setup_times), "s"});
    } else {
      const bool certify = kind == JobKind::kCertify;
      for (const Circuit& c : corpus)
        refs.push_back(run_checked(c, kind, &tally, nullptr, nullptr));
      std::map<std::string, std::vector<std::vector<double>>> spans;
      std::vector<LayerRun> first(corpus.size());
      for (std::size_t pass = 0; pass == 0 || since(start) < seconds;
           ++pass) {
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          LayerRun r = run_layers(corpus[i], certify);
          // A plain irr job carries no proof. Time once per circuit the
          // check a certify job of it would add; the certify workload
          // times it on every pass.
          if (pass == 0 && !certify) {
            const LayerRun proved = run_layers(corpus[i], true);
            r.seconds["proof_check"] = proved.seconds.at("proof_check");
            r.certificates = proved.certificates;
          }
          ++tally.attempted;
          if (r.output_digest != refs[i].output_digest)
            tally.fail(corpus[i].name +
                       ": layered pipeline differs from run_job");
          for (const auto& [name, s] : r.seconds) {
            auto& per = spans[name];
            per.resize(corpus.size());
            per[i].push_back(s);
          }
          if (pass == 0) first[i] = r;
        }
      }
      // Per-layer time of one pass over the corpus: the sum over
      // circuits of each circuit's median span.
      for (const auto& [name, per] : spans) {
        double total = 0;
        for (const auto& v : per) total += median(v);
        metrics.push_back({name + "_ms", 1e3 * total, "ms"});
      }
      double queries = 0, certificates = 0;
      for (const LayerRun& r : first) {
        queries += static_cast<double>(r.sensitization_queries);
        certificates += static_cast<double>(r.certificates);
      }
      metrics.push_back({"sensitization_queries", queries, "count"});
      metrics.push_back({"certificates_checked", certificates, "count"});
      // Work counters of the run_job() reference reports.
      std::map<std::string, double> counters;
      for (const JobReport& r : refs) {
        counters["kms_iterations"] += r.iterations;
        counters["duplicated_gates"] += r.duplicated_gates;
        counters["constants_set"] += r.constants_set;
        counters["redundancies_removed"] += r.redundancies_removed;
        counters["removal_passes"] += r.removal_passes;
        counters["removal_sat_queries"] += r.removal_sat_queries;
        counters["removal_sim_dropped"] += r.removal_sim_dropped;
        counters["removal_witness_dropped"] += r.removal_witness_dropped;
        counters["removal_cache_hits"] += r.removal_cache_hits;
        counters["removal_static_discharged"] += r.removal_static_discharged;
        counters["removal_cone_gates"] += r.removal_cone_gates;
        counters["sta_gates_repaired"] += r.sta_gates_repaired;
        counters["sat_conflicts"] += r.gov_conflicts;
        counters["final_gates"] += r.final_gates;
      }
      for (const auto& [name, v] : counters)
        metrics.push_back({name, v, "count"});
    }

    for (std::size_t i = 0; i < corpus.size(); ++i) {
      check_reference(corpus[i], kind, refs[i], &tally);
      write_file(check_dir + "/" + std::to_string(i) + ".in.blif",
                 corpus[i].blif);
      write_file(check_dir + "/" + std::to_string(i) + ".out.blif",
                 refs[i].output_blif);
    }
    print_result(tally, metrics, circuit_lines);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_driver: %s\n", e.what());
    return 2;
  }
  return 0;
}
