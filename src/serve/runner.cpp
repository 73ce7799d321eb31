#include "src/serve/runner.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>

#include "src/analysis/report.hpp"
#include "src/analysis/rules.hpp"
#include "src/atpg/atpg.hpp"
#include "src/base/durable.hpp"
#include "src/base/strings.hpp"
#include "src/check/checker.hpp"
#include "src/check/diagnostics.hpp"
#include "src/core/kms.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/recover/session.hpp"
#include "src/seq/seq_network.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms::serve {

// Copy a counter group, and the groups it nests, into the report, each
// counter under its report key.
#define KMS_FILL(member, type, rule, ...) \
  rep->KMS_COUNTER_KEY(member, __VA_ARGS__) = counters.member;

static void fill_counters(const AtpgStats& counters, JobReport* rep) {
  KMS_ATPG_COUNTERS(KMS_FILL)
}

static void fill_counters(const RedundancyRemovalResult& counters,
                          JobReport* rep) {
  KMS_REMOVAL_COUNTERS(KMS_FILL)
  fill_counters(counters.atpg, rep);
}

void fill_counters(const KmsStats& counters, JobReport* rep) {
  KMS_LOOP_COUNTERS(KMS_FILL)
  fill_counters(counters.removal, rep);
}
#undef KMS_FILL

namespace {

/// The spec's payload (a combinational or sequential model) as parsed
/// model, and with `source_bytes` its exact source bytes (durable
/// sessions persist the bytes; digests are computed over them).
BlifSequential load_payload(const JobSpec& spec, std::string* source_bytes) {
  std::optional<std::string> file;
  if (spec.blif.empty()) {
    file = read_file(spec.blif_path);
    if (!file) throw BlifError("cannot open " + spec.blif_path);
  }
  const std::string& text = file ? *file : spec.blif;
  if (source_bytes != nullptr) *source_bytes = text;
  return read_blif_sequential_string(text);
}

/// --emit-proof preflight: create the artifact directory and prove it
/// is writable before any expensive work starts, with a diagnostic that
/// names the actual problem instead of failing an hour in.
void preflight_artifact_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw std::runtime_error("cannot create artifact directory '" + dir +
                             "': " + ec.message());
  if (!std::filesystem::is_directory(dir))
    throw std::runtime_error("artifact path '" + dir +
                             "' exists but is not a directory");
  const std::string probe = dir + "/.kms-probe.tmp";
  {
    std::ofstream out(probe, std::ios::trunc);
    if (!(out << "probe\n"))
      throw std::runtime_error("artifact directory '" + dir +
                               "' is not writable");
  }
  std::filesystem::remove(probe, ec);
}

/// Run the invariant checker, folding findings into the report's
/// structured diagnostics. Throws CheckFailure on error severity.
void check_stage(const JobSpec& spec, JobReport* rep, const Network& net,
                 const char* stage) {
  if (!spec.check) return;
  const Diagnostics diags = NetworkChecker().run(net);
  if (!diags.empty()) {
    std::istringstream lines(
        diags.to_text(std::string("check(") + stage + "): "));
    std::string line;
    while (std::getline(lines, line))
      if (!line.empty()) rep->diagnostics.push_back(line);
  }
  if (diags.error_count() > 0)
    throw CheckFailure(std::string("invariant violations at stage ") + stage);
}

/// Fold the governor's verdict into the report: degradation flags, the
/// charged budgets, and the exit code (3 = valid partial result).
void finish_governed(const ResourceGovernor& governor, JobReport* rep) {
  const GovernorReport r = governor.report();
  rep->gov_queries = r.queries;
  rep->gov_unknown = r.unknown_results;
  rep->gov_conflicts = r.conflicts;
  rep->gov_propagations = r.propagations;
  rep->deadline_hit = rep->deadline_hit || r.deadline_hit;
  rep->budget_exhausted = rep->budget_exhausted || r.budget_exhausted;
  rep->interrupted = rep->interrupted || r.interrupted;
  if (r.degraded()) {
    rep->degraded = true;
    rep->diagnostics.push_back(
        str_format("degraded: %llu of %llu queries unknown%s%s%s "
                   "(%llu conflicts, %llu propagations charged)",
                   static_cast<unsigned long long>(r.unknown_results),
                   static_cast<unsigned long long>(r.queries),
                   r.deadline_hit ? ", deadline hit" : "",
                   r.budget_exhausted ? ", conflict budget exhausted" : "",
                   r.interrupted ? ", interrupted" : "",
                   static_cast<unsigned long long>(r.conflicts),
                   static_cast<unsigned long long>(r.propagations)));
    if (rep->exit_code == 0) rep->exit_code = 3;
  }
}

void run_stats(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  const BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  const std::size_t latches = model.latch_init.size();
  const Network& net = model.comb;
  rep->text += str_format("model          : %s\n", net.name().c_str());
  rep->text += str_format("inputs/outputs : %zu / %zu\n",
                          net.inputs().size() - latches,
                          net.outputs().size() - latches);
  rep->text += str_format("latches        : %zu\n", latches);
  rep->text +=
      str_format("gates          : %zu (depth %zu, max fanout %zu)\n",
                 net.count_gates(), net.depth(), net.max_fanout());
  rep->initial_gates = rep->final_gates = net.count_gates();
}

void run_delay(const JobSpec& spec, ResourceGovernor& governor,
               JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  const SensitizationMode mode = spec.mode == "viability"
                                     ? SensitizationMode::kViability
                                     : SensitizationMode::kStatic;
  const double topo = topological_delay(model.comb);
  const DelayReport r = computed_delay(model.comb, mode, &governor);
  rep->text += str_format("longest path    : %.3f\n", topo);
  rep->text += str_format(
      "computed delay  : %.3f (%s, %s)\n", r.delay,
      mode == SensitizationMode::kStatic ? "static sensitization"
                                         : "viability",
      r.exact ? "exact"
              : (r.aborted ? "upper bound, resources exhausted"
                           : "upper bound, budget exhausted"));
  if (r.witness)
    rep->text += str_format("critical path   : %s\n",
                            format_path(model.comb, *r.witness).c_str());
  if (topo > r.delay + 1e-9 && r.exact)
    rep->text += str_format(
        "note: the longest path is FALSE — a plain static timing "
        "verifier overestimates this circuit by %.3f\n",
        topo - r.delay);
  rep->initial_topo_delay = rep->final_topo_delay = topo;
  rep->initial_computed_delay = rep->final_computed_delay = r.delay;
  rep->initial_computed_exact = rep->final_computed_exact = r.exact;
}

void run_analyze(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  const analysis::AnalysisReport report = analysis::run_analysis(model.comb);
  std::ostringstream ss;
  if (spec.json)
    report.print_json(ss);
  else
    report.print_text(ss);
  rep->text = ss.str();
}

void run_lint(const JobSpec& spec, ResourceGovernor&, JobReport* rep) {
  Diagnostics diags;
  try {
    const BlifSequential model = load_payload(spec, nullptr);
    CheckOptions copts;
    copts.warnings = spec.warnings;
    diags = NetworkChecker(copts).run(model.comb);
    // The analysis-backed and timing rules assume the representation
    // invariants hold; skip them on a structurally broken netlist. NL022
    // is error-severity, so the timing rules run even without warnings
    // (which only drops NL023 inside).
    if (diags.error_count() == 0) {
      if (spec.warnings) analysis::run_analysis_rules(model.comb, &diags);
      run_timing_rules(model.comb, &diags, 100, spec.warnings);
    }
  } catch (const BlifError& e) {
    Diagnostic d;
    d.rule = "NL900";
    std::string msg = e.what();
    // Lift a parse error's "line N: " prefix into the line field, so JSON
    // consumers get it structured and the text emitter does not print it
    // twice.
    if (msg.rfind("line ", 0) == 0) {
      d.line = std::atoi(msg.c_str() + 5);
      const auto colon = msg.find(": ");
      if (colon != std::string::npos) msg.erase(0, colon + 2);
    }
    d.message = std::move(msg);
    diags.add(std::move(d));
  }
  rep->lint_errors = diags.error_count();
  rep->lint_findings = diags.all().size();
  std::ostringstream ss;
  if (spec.json)
    diags.print_json(ss);
  else
    diags.print_text(ss, "");
  rep->text = ss.str();
  if (diags.error_count() > 0 || (spec.strict && !diags.empty()))
    rep->exit_code = 2;
}

void run_audit(const JobSpec& spec, ResourceGovernor& governor,
               JobReport* rep) {
  BlifSequential model = load_payload(spec, nullptr);
  check_stage(spec, rep, model.comb, "input");
  const auto faults = collapsed_faults(model.comb);
  Atpg atpg(model.comb, &governor);
  std::size_t redundant = 0;
  std::size_t unresolved = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (governor.should_stop()) {
      // Out of resources: everything not yet queried stays unresolved
      // (conservatively assumed testable), never reported redundant.
      unresolved += faults.size() - i;
      break;
    }
    const TestOutcome outcome = atpg.generate_test(faults[i]).outcome;
    if (outcome == TestOutcome::kUntestable) {
      ++redundant;
      rep->text += str_format("redundant: %s\n",
                              format_fault(model.comb, faults[i]).c_str());
    } else if (outcome == TestOutcome::kUnknown) {
      ++unresolved;
    }
  }
  const AtpgStats& as = atpg.stats();
  rep->text += str_format("faults         : %zu collapsed\n", faults.size());
  rep->text += str_format("redundant      : %zu\n", redundant);
  rep->text += str_format(
      "unknown        : %zu (resource-limited; treated as testable)\n",
      unresolved);
  rep->text += str_format("sat conflicts  : %llu\n",
                          static_cast<unsigned long long>(as.sat_conflicts));
  rep->text += str_format(
      "sat solves     : %llu (+%llu structural shortcuts)\n",
      static_cast<unsigned long long>(as.sat_solves),
      static_cast<unsigned long long>(as.structural_shortcuts));
  if (as.sat_solves > 0)
    rep->text += str_format(
        "cone gates     : %.1f avg, %llu max per solve\n",
        static_cast<double>(as.cone_gates_encoded) /
            static_cast<double>(as.sat_solves),
        static_cast<unsigned long long>(as.max_cone_gates));
  rep->text += str_format("verdict        : %s\n",
                          redundant != 0    ? "NOT fully testable"
                          : unresolved != 0 ? "inconclusive (resource limit)"
                                            : "fully single-stuck-at testable");
  rep->audit_faults = faults.size();
  rep->audit_redundant = redundant;
  rep->audit_unknown = unresolved;
  rep->audit_sat_conflicts = as.sat_conflicts;
  fill_counters(as, rep);
}

void run_irr(const JobSpec& spec, ResourceGovernor& governor, JobReport* rep) {
  const bool certify = spec.kind == JobKind::kCertify;
  const bool resuming = !spec.resume.empty();
  // An artifact directory makes the run a durable session: the journal
  // is write-ahead-logged and checkpointed so a killed run resumes.
  const bool durable = resuming || !spec.emit_proof.empty();
  const bool proving = certify || durable;

  BlifSequential model;
  recover::ResumeSetup rs;  // owns the resume state across the run
  proof::ProofSession own_session;
  proof::ProofSession* session = resuming ? &rs.session : &own_session;
  std::string proof_input;
  std::optional<recover::DurableSession> dur;
  KmsOptions opts;

  if (resuming) {
    rs = recover::prepare_resume(spec.resume);
    model = std::move(rs.model);
    proof_input = rs.proof_input;
    // The session's recorded configuration wins: resume-time options
    // must not silently change what the result bits depend on. The job
    // count is the spec's — the result is worker-count invariant.
    recover::apply_meta(rs.info.meta, &opts);
    if (rs.info.has_checkpoint) opts.resume = &rs.state;
    dur.emplace(
        recover::DurableSession::attach(spec.resume, rs.info, session));
    rep->diagnostics.push_back(str_format(
        "resuming %s: phase %s, %llu steps, %llu removals committed",
        spec.resume.c_str(),
        rs.info.has_checkpoint ? rs.info.ckpt.phase.c_str() : "start",
        static_cast<unsigned long long>(rs.info.steps.size()),
        static_cast<unsigned long long>(
            rs.info.has_checkpoint ? rs.info.ckpt.stats.removal.removed : 0)));
  } else {
    opts.mode = spec.mode == "viability" ? SensitizationMode::kViability
                                         : SensitizationMode::kStatic;
    std::string source_bytes;
    if (durable) preflight_artifact_dir(spec.emit_proof);
    model = load_payload(spec, &source_bytes);
    if (!proving) rep->input_digest = proof::digest_bytes(source_bytes);
    check_stage(spec, rep, model.comb, "input");
    if (proving) {
      // The journal brackets the combinational core the pipeline
      // actually transforms, serialized before any transform runs.
      proof_input = write_blif_string(model.comb);
      session->journal.set_model(model.comb.name());
      session->journal.set_input_digest(proof::digest_bytes(proof_input));
    }
    if (durable) {
      const recover::SessionMeta meta = recover::make_meta(
          model.comb.name(), opts, spec.checkpoint_every,
          proof::digest_bytes(source_bytes));
      dur.emplace(recover::DurableSession::create(spec.emit_proof, meta,
                                                  source_bytes, session));
    }
  }
  // One RunContext configures the whole pipeline: governor, proof
  // session, invariant checkpoints between KMS loop phases, the
  // removal-phase worker count and the durability sink.
  opts.context.governor = &governor;
  opts.context.session = proving ? session : nullptr;
  opts.context.check_invariants = spec.check;
  opts.context.jobs = static_cast<unsigned>(spec.jobs);
  if (dur) opts.context.sink = &*dur;
  const KmsStats stats = kms_make_irredundant(model.comb, opts);
  check_stage(spec, rep, model.comb, "kms_make_irredundant");
  fill_counters(stats, rep);
  const std::string proof_output =
      proving ? write_blif_string(model.comb) : std::string();
  if (proving) {
    session->journal.set_output_digest(proof::digest_bytes(proof_output));
    if (dur) dur->finalize(proof_input, proof_output);
    rep->input_digest = proof::digest_bytes(proof_input);
    rep->output_digest = proof::digest_bytes(proof_output);
    if (certify) {
      const proof::VerifyReport vrep =
          proof::verify_session(*session, proof_input, proof_output);
      if (!vrep) {
        rep->error = "certification FAILED: " + vrep.error;
        rep->exit_code = 2;
        return;
      }
      rep->certified = true;
      rep->certify_partial = vrep.partial;
      rep->steps_checked = vrep.steps_checked;
      rep->certificates_checked = vrep.certificates_checked;
      rep->deletions_verified = vrep.deletions_verified;
    }
  }
  // The result netlist, as the CLI would write it (sequential wrapper
  // restored around the transformed combinational core).
  std::ostringstream out;
  write_blif_sequential(model.comb, model.latch_init.size(),
                        model.latch_init, out);
  const std::string out_bytes = out.str();
  if (rep->output_digest == 0)
    rep->output_digest = proof::digest_bytes(out_bytes);
  if (!spec.output_path.empty()) {
    std::ofstream f(spec.output_path);
    if (!f) throw BlifError("cannot open " + spec.output_path);
    f << out_bytes;
  }
  if (spec.want_output) rep->output_blif = out_bytes;
}

}  // namespace

JobReport run_job(const JobSpec& spec, ResourceGovernor& governor) {
  JobReport rep;
  rep.kind = job_kind_name(spec.kind);
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    rep.verdict = "rejected";
    rep.error = problem;
    rep.exit_code = 1;
    return rep;
  }
  if (spec.time_limit > 0) governor.set_time_limit(spec.time_limit);
  if (spec.conflict_limit >= 0)
    governor.set_conflict_limit(spec.conflict_limit);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    switch (spec.kind) {
      case JobKind::kIrr:
      case JobKind::kCertify:
        run_irr(spec, governor, &rep);
        break;
      case JobKind::kAudit:
        run_audit(spec, governor, &rep);
        finish_governed(governor, &rep);
        break;
      case JobKind::kAnalyze:
        run_analyze(spec, governor, &rep);
        break;
      case JobKind::kLint:
        run_lint(spec, governor, &rep);
        break;
      case JobKind::kDelay:
        run_delay(spec, governor, &rep);
        finish_governed(governor, &rep);
        break;
      case JobKind::kStats:
        if (spec.blif.empty() && spec.blif_path.empty()) {
          // Daemon-level stats are answered by kmsd itself; a local
          // runner has no daemon counters to report.
          rep.verdict = "rejected";
          rep.error = "stats without a payload is a daemon-only job";
          rep.exit_code = 1;
          return rep;
        }
        run_stats(spec, governor, &rep);
        break;
    }
    if (spec.kind == JobKind::kIrr || spec.kind == JobKind::kCertify)
      if (rep.exit_code != 2) finish_governed(governor, &rep);
  } catch (const std::exception& e) {
    rep.error = e.what();
    rep.exit_code = 2;
  }
  rep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rep.verdict = rep.exit_code == 0   ? "ok"
                : rep.exit_code == 3 ? "degraded"
                                     : "error";
  return rep;
}

}  // namespace kms::serve
