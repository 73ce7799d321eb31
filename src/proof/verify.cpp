#include "src/proof/verify.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "src/base/durable.hpp"
#include "src/base/strings.hpp"
#include "src/check/checker.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/checker.hpp"

namespace kms::proof {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::optional<std::string> bytes = read_file(p.string());
  if (!bytes) throw std::runtime_error("cannot open " + p.string());
  return std::move(*bytes);
}

}  // namespace

VerifyReport verify_session(const ProofSession& session,
                            const std::string& input_blif,
                            const std::string& output_blif) {
  VerifyReport rep;
  const TransformJournal& j = session.journal;
  rep.partial = j.partial();

  if (j.input_digest() != digest_bytes(input_blif)) {
    rep.error = "input digest does not match journalled input-digest";
    return rep;
  }
  if (j.output_digest() != digest_bytes(output_blif)) {
    rep.error = "output digest does not match journalled output-digest";
    return rep;
  }

  // Verify each referenced certificate exactly once, on first use, all
  // on one checker's storage.
  const auto& certs = session.certificates();
  std::vector<bool> cert_ok(certs.size(), false);
  DratChecker checker;
  const auto check_cert = [&](std::size_t step, std::int64_t id) {
    if (id < 0 || static_cast<std::size_t>(id) >= certs.size()) {
      rep.error = str_format(
          "step %zu references unknown certificate %lld", step,
          static_cast<long long>(id));
      return false;
    }
    if (!cert_ok[static_cast<std::size_t>(id)]) {
      const DratCheckResult r =
          checker.check(certs[static_cast<std::size_t>(id)]);
      if (!r) {
        rep.error = str_format("certificate %lld rejected: %s",
                               static_cast<long long>(id), r.error.c_str());
        return false;
      }
      cert_ok[static_cast<std::size_t>(id)] = true;
      ++rep.certificates_checked;
    }
    return true;
  };

  // Replay: local inference rules over the step sequence.
  enum class PathVerdict { kNone, kUnsens };
  PathVerdict path = PathVerdict::kNone;
  std::map<std::string, std::int64_t> untestable;  // fault -> proof id
  const auto& steps = j.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const JournalStep& s = steps[i];
    switch (s.kind) {
      case JournalStep::Kind::kPathUnsens:
        if (s.proof < 0) {
          rep.error = str_format(
              "step %zu claims an unsensitizable path without a proof", i);
          return rep;
        }
        if (!check_cert(i, s.proof)) return rep;
        path = PathVerdict::kUnsens;
        break;
      case JournalStep::Kind::kPathGiveup:
        path = PathVerdict::kNone;
        break;
      case JournalStep::Kind::kDuplicate:
        if (path != PathVerdict::kUnsens) {
          rep.error = str_format(
              "step %zu duplicates gates without a preceding proven "
              "unsensitizable-path verdict",
              i);
          return rep;
        }
        break;
      case JournalStep::Kind::kConstant:
        if (path != PathVerdict::kUnsens) {
          rep.error = str_format(
              "step %zu asserts a constant without a preceding proven "
              "unsensitizable-path verdict",
              i);
          return rep;
        }
        // The unsens verdict is consumed: the loop must re-prove before
        // the next surgery round.
        path = PathVerdict::kNone;
        break;
      case JournalStep::Kind::kFaultUntestable:
        if (s.proof < 0) {
          rep.error = str_format(
              "step %zu claims an untestable fault without a proof", i);
          return rep;
        }
        if (!check_cert(i, s.proof)) return rep;
        untestable[s.what] = s.proof;
        break;
      case JournalStep::Kind::kFaultUnknown:
      case JournalStep::Kind::kPartial:
        break;
      case JournalStep::Kind::kDelete: {
        const auto it = untestable.find(s.what);
        if (s.proof < 0 || it == untestable.end() || it->second != s.proof) {
          rep.error = str_format(
              "step %zu deletes '%s' without a matching proven "
              "untestable-fault verdict",
              i, s.what.c_str());
          return rep;
        }
        ++rep.deletions_verified;
        break;
      }
    }
    ++rep.steps_checked;
  }

  // Structural cross-check of the final netlist (errors only: a
  // certified-but-corrupt output is exactly what this layer must catch).
  Network out_net;
  try {
    out_net = read_blif_string(output_blif);
  } catch (const BlifError& e) {
    rep.error = std::string("output netlist unreadable: ") + e.what();
    return rep;
  }
  CheckOptions copts;
  copts.warnings = false;
  const Diagnostics diags = NetworkChecker(copts).run(out_net);
  if (diags.error_count() > 0) {
    rep.error =
        "output netlist fails invariants: " + diags.all().front().message;
    return rep;
  }

  rep.ok = true;
  return rep;
}

void write_certificate_files(const ProofSession& session,
                             const std::string& dir, std::size_t first) {
  const fs::path root(dir);
  const auto& certs = session.certificates();
  for (std::size_t i = first; i < certs.size(); ++i) {
    std::ostringstream cnf;
    write_cnf(certs[i], cnf);
    atomic_write_file((root / str_format("q%zu.cnf", i)).string(), cnf.str());
    std::ostringstream drat;
    write_drat(certs[i], drat);
    atomic_write_file((root / str_format("q%zu.drat", i)).string(),
                      drat.str());
  }
}

void write_artifacts(const ProofSession& session, const std::string& dir,
                     const std::string& input_blif,
                     const std::string& output_blif) {
  const fs::path root(dir);
  fs::create_directories(root);
  // Every artifact goes through write-temp-then-rename: a crash mid-run
  // can leave a file missing (or a stray .tmp), never a torn one.
  atomic_write_file((root / "input.blif").string(), input_blif);
  atomic_write_file((root / "output.blif").string(), output_blif);
  atomic_write_file((root / "journal.txt").string(),
                    session.journal.to_text());
  write_certificate_files(session, dir, 0);
}

VerifyReport verify_artifact_dir(const std::string& dir) {
  VerifyReport rep;
  const fs::path root(dir);
  try {
    const std::string input = slurp(root / "input.blif");
    const std::string output = slurp(root / "output.blif");
    const std::string journal_text = slurp(root / "journal.txt");

    ProofSession session;
    {
      std::istringstream in(journal_text);
      session.journal = TransformJournal::read(in);
    }
    for (std::size_t i = 0;; ++i) {
      const fs::path cnf_path = root / str_format("q%zu.cnf", i);
      const fs::path drat_path = root / str_format("q%zu.drat", i);
      if (!fs::exists(cnf_path)) break;
      std::ifstream cnf(cnf_path);
      std::ifstream drat(drat_path);
      if (!cnf || !drat)
        throw std::runtime_error(
            str_format("certificate %zu files unreadable", i));
      session.add_certificate(read_certificate(cnf, drat));
    }
    return verify_session(session, input, output);
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
}

}  // namespace kms::proof
