// kmslint — lint BLIF files with the netlist invariant checker.
//
//   kmslint [options] <in.blif>...
//     --json        emit one JSON report object per file (array overall)
//     --strict      treat warnings as errors for the exit code
//     --no-warn     run error-severity rules only
//     --list-rules  print the rule table and exit
//
// Each finding names its stable rule id (NL001...) and the offending
// gate/connection; BLIF parse failures are reported as rule NL900 with
// the source line. Exit codes: 0 clean, 1 usage error, 2 findings at
// error severity (or, with --strict, any findings) — so corrupt inputs
// fail fast in scripts instead of producing wrong irredundant circuits.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.hpp"
#include "src/check/diagnostics.hpp"
#include "src/check/hooks.hpp"
#include "src/serve/job.hpp"
#include "src/serve/runner.hpp"
#include "tools/args.hpp"

namespace {

using namespace kms;

/// Options ride on a lint JobSpec (the shared flag table maps --json/
/// --strict/--no-warn onto it), and each file is one lint job through
/// run_job, so kmslint's flags and findings are exactly those of
/// kmscli lint and a kmsd lint job.
struct Args {
  serve::JobSpec spec;
  bool list_rules = false;
  std::vector<std::string> files;
};

int usage() {
  std::fprintf(stderr,
               "usage: kmslint [--json] [--strict] [--no-warn] "
               "[--list-rules] <in.blif>...\n");
  return 1;
}

bool parse_args(int argc, char** argv, Args* args) {
  args->spec.kind = serve::JobKind::kLint;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-rules") {
      args->list_rules = true;
      continue;
    }
    if (!a.empty() && a[0] == '-') {
      switch (tools::parse_job_flag("kmslint", argc, argv, &i, &args->spec)) {
        case tools::FlagResult::kHandled:
          continue;
        case tools::FlagResult::kBadValue:
          return false;
        case tools::FlagResult::kUnknown:
          tools::report_unknown_flag("kmslint", argv[i]);
          return false;
      }
    }
    args->files.push_back(a);
  }
  return args->list_rules || !args->files.empty();
}

int list_rules() {
  for (const RuleInfo& r : all_rules())
    std::printf("%s  %-7s  %-20s  %s\n", r.id,
                std::string(severity_name(r.severity)).c_str(), r.title,
                r.summary);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();
  if (args.list_rules) return list_rules();
  // Flags a lint job rejects (an artifact directory, a resume) are
  // usage errors, caught before any output.
  args.spec.blif_path = args.files.front();
  if (const std::string problem = args.spec.validate(); !problem.empty()) {
    std::fprintf(stderr, "kmslint: %s\n", problem.c_str());
    return usage();
  }
  install_invariant_self_checks();

  bool any_error = false, any_finding = false;
  if (args.spec.json) std::cout << "[";
  for (std::size_t i = 0; i < args.files.size(); ++i) {
    const std::string& path = args.files[i];
    serve::JobSpec spec = args.spec;
    spec.blif_path = path;
    ResourceGovernor governor;
    const serve::JobReport rep = serve::run_job(spec, governor);
    if (!rep.error.empty()) {
      std::fprintf(stderr, "kmslint: %s: %s\n", path.c_str(),
                   rep.error.c_str());
      return 2;
    }
    any_error |= rep.lint_errors > 0;
    any_finding |= rep.lint_findings > 0;
    if (args.spec.json) {
      if (i > 0) std::cout << ",";
      std::string file = "{\"file\":";
      json_append_quoted(&file, path);
      std::cout << file << ",\"report\":" << rep.text << "}";
    } else {
      std::istringstream lines(rep.text);
      std::string line;
      while (std::getline(lines, line))
        std::cerr << path << ": " << line << '\n';
      if (rep.lint_findings == 0)
        std::fprintf(stderr, "%s: clean (%zu rules)\n", path.c_str(),
                     all_rules().size());
    }
  }
  if (args.spec.json) std::cout << "]\n";
  return (any_error || (args.spec.strict && any_finding)) ? 2 : 0;
}
