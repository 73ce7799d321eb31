#include "src/proof/drat.hpp"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace kms::proof {

Clause to_dimacs(std::span<const sat::Lit> lits) {
  Clause out;
  out.reserve(lits.size());
  for (const sat::Lit l : lits) {
    const std::int32_t v = l.var() + 1;
    out.push_back(l.sign() ? -v : v);
  }
  std::sort(out.begin(), out.end(), [](std::int32_t a, std::int32_t b) {
    const std::int32_t aa = std::abs(a), ab = std::abs(b);
    return aa != ab ? aa < ab : a < b;
  });
  return out;
}

std::int32_t DratCertificate::max_var() const {
  std::int32_t m = 0;
  const auto scan = [&m](const Clause& c) {
    for (const std::int32_t l : c) m = std::max(m, std::abs(l));
  };
  for (const Clause& c : formula) scan(c);
  scan(assumptions);
  for (const DratStep& s : steps) scan(s.clause);
  return m;
}

void DratTrace::append(Entry kind, const std::vector<sat::Lit>& clause) {
  lits_.insert(lits_.end(), clause.begin(), clause.end());
  ends_.push_back(static_cast<std::uint32_t>(lits_.size()));
  kinds_.push_back(kind);
}

void DratTrace::on_original(const std::vector<sat::Lit>& clause) {
  append(Entry::kOriginal, clause);
  ++formula_size_;
}

void DratTrace::on_learn(const std::vector<sat::Lit>& clause) {
  append(Entry::kLearn, clause);
}

void DratTrace::on_delete(const std::vector<sat::Lit>& clause) {
  append(Entry::kDelete, clause);
}

void DratTrace::on_solve_begin(const std::vector<sat::Lit>& assumptions) {
  // Per-solve reset: whatever the previous query concluded, it is not
  // this query's conclusion. Only the lemma/deletion stream carries over.
  concluded_unsat_ = false;
  assumptions_ = assumptions;
  ++solves_;
}

void DratTrace::on_solve_end(sat::Result result) {
  concluded_unsat_ = (result == sat::Result::kUnsat);
}

std::optional<DratCertificate> DratTrace::last_unsat_certificate() const {
  if (!concluded_unsat_) return std::nullopt;
  DratCertificate cert;
  cert.query = solves_;
  cert.formula.reserve(formula_size_);
  cert.steps.reserve(step_count());
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    Clause c = to_dimacs(
        std::span<const sat::Lit>(lits_.data() + begin, ends_[i] - begin));
    begin = ends_[i];
    if (kinds_[i] == Entry::kOriginal)
      cert.formula.push_back(std::move(c));
    else
      cert.steps.push_back({kinds_[i] == Entry::kLearn
                                ? DratStep::Kind::kLearn
                                : DratStep::Kind::kDelete,
                            std::move(c)});
  }
  cert.assumptions = to_dimacs(assumptions_);
  return cert;
}

void DratTrace::reset() {
  lits_.clear();
  ends_.clear();
  kinds_.clear();
  formula_size_ = 0;
  assumptions_.clear();
  solves_ = 0;
  concluded_unsat_ = false;
}

namespace {

void write_clause(const Clause& c, std::ostream& out) {
  for (const std::int32_t l : c) out << l << ' ';
  out << "0\n";
}

}  // namespace

void write_cnf(const DratCertificate& cert, std::ostream& out) {
  out << "c kms-proof query " << cert.query << "\n";
  out << "p cnf " << cert.max_var() << ' '
      << cert.formula.size() + cert.assumptions.size() << "\n";
  for (const Clause& c : cert.formula) write_clause(c, out);
  for (const std::int32_t a : cert.assumptions) {
    out << "c assumption\n";
    out << a << " 0\n";
  }
}

void write_drat(const DratCertificate& cert, std::ostream& out) {
  for (const DratStep& s : cert.steps) {
    if (s.kind == DratStep::Kind::kDelete) out << "d ";
    write_clause(s.clause, out);
  }
  out << "0\n";  // the empty clause concludes the proof
}

namespace {

Clause parse_clause(std::istringstream& line, const char* what) {
  Clause c;
  std::int32_t l = 0;
  bool terminated = false;
  while (line >> l) {
    if (l == 0) {
      terminated = true;
      break;
    }
    c.push_back(l);
  }
  if (!terminated)
    throw std::runtime_error(std::string(what) +
                             ": clause line missing 0 terminator");
  return c;
}

}  // namespace

DratCertificate read_certificate(std::istream& cnf, std::istream& drat) {
  DratCertificate cert;
  std::string text;
  bool saw_header = false;
  bool next_is_assumption = false;
  while (std::getline(cnf, text)) {
    if (text.empty()) continue;
    std::istringstream line(text);
    if (text[0] == 'c') {
      if (text.rfind("c assumption", 0) == 0) next_is_assumption = true;
      continue;
    }
    if (text[0] == 'p') {
      saw_header = true;
      continue;
    }
    Clause c = parse_clause(line, "cnf");
    if (next_is_assumption) {
      next_is_assumption = false;
      if (c.size() != 1)
        throw std::runtime_error("cnf: assumption clause is not a unit");
      cert.assumptions.push_back(c[0]);
    } else {
      cert.formula.push_back(std::move(c));
    }
  }
  if (!saw_header) throw std::runtime_error("cnf: missing 'p cnf' header");

  while (std::getline(drat, text)) {
    if (text.empty() || text[0] == 'c') continue;
    std::istringstream line(text);
    DratStep step;
    step.kind = DratStep::Kind::kLearn;
    if (text[0] == 'd') {
      step.kind = DratStep::Kind::kDelete;
      char d;
      line >> d;
    }
    step.clause = parse_clause(line, "drat");
    cert.steps.push_back(std::move(step));
  }
  return cert;
}

}  // namespace kms::proof
