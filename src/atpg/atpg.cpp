#include "src/atpg/atpg.hpp"

#include <algorithm>
#include <cassert>

#include "src/cnf/encoder.hpp"
#include "src/core/verdict.hpp"

namespace kms {

using sat::Lit;
using sat::Var;

Atpg::Atpg(const Network& net, ResourceGovernor* governor)
    : net_(net), governor_(governor), good_(net, solver_, {}) {}

void Atpg::mark_fault_cone(const Fault& f) {
  cone_outputs_.clear();
  stack_.clear();
  auto push = [&](GateId g) {
    if (cone_[g.value()] != stamp_) {
      cone_[g.value()] = stamp_;
      stack_.push_back(g);
    }
  };
  if (f.site == Fault::Site::kStem) {
    push(f.gate);
  } else {
    push(net_.conn(f.conn).to);
  }
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (ConnId c : net_.gate(g).fanouts) push(net_.conn(c).to);
  }
  for (GateId o : net_.outputs())
    if (cone_[o.value()] == stamp_) cone_outputs_.push_back(o);
}

void Atpg::collect_support(GateId extra_root) {
  support_.clear();
  stack_.clear();
  auto push = [&](GateId g) {
    if (in_support_[g.value()] != stamp_) {
      in_support_[g.value()] = stamp_;
      support_.push_back(g);
      stack_.push_back(g);
    }
  };
  push(extra_root);
  for (GateId o : cone_outputs_) push(o);
  while (!stack_.empty()) {
    const GateId g = stack_.back();
    stack_.pop_back();
    for (ConnId c : net_.gate(g).fanins) push(net_.conn(c).from);
  }
  std::sort(support_.begin(), support_.end(), [&](GateId a, GateId b) {
    return topo_rank_[a.value()] < topo_rank_[b.value()];
  });
}

TestResult Atpg::generate_test(const Fault& fault) {
  ++stats_.queries;

  const std::uint32_t cap = net_.gate_capacity();
  if (cone_.size() < cap) {
    cone_.resize(cap, 0);
    in_support_.resize(cap, 0);
    faulty_.resize(cap, -1);
  }
  ++stamp_;
  mark_fault_cone(fault);

  // Untestable without a SAT call if no primary output sees the fault.
  // This is a structural proof, exact under any resource pressure.
  // Under proof capture the shortcut is bypassed: every untestable
  // verdict must carry a checkable certificate, and the SAT encoding
  // below yields one even here — the detection clause comes out empty,
  // a root-level contradiction any DRAT checker confirms.
  if (cone_outputs_.empty() && !capture_) {
    ++stats_.untestable;
    ++stats_.structural_shortcuts;
    return TestResult{TestOutcome::kUntestable, std::nullopt};
  }

  if (topo_rank_.empty()) {
    topo_rank_.assign(cap, 0);
    const std::vector<GateId> order = net_.topo_order();
    for (std::uint32_t i = 0; i < order.size(); ++i)
      topo_rank_[order[i].value()] = i;
  }

  // Cone-of-influence restriction: encode only the transitive fanin of
  // the cone's outputs (plus the fault source, needed for activation)
  // instead of the whole network. The verdict is unchanged — no gate
  // outside that support can influence activation or detection.
  const GateId src_gate = fault_source(net_, fault);
  collect_support(src_gate);

  solver_.reset();
  if (capture_) {
    trace_.reset();
    solver_.set_proof(&trace_);
  }
  if (governor_) solver_.set_governor(governor_);
  good_.reencode(support_);
  ++stats_.sat_solves;
  stats_.cone_gates_encoded += good_.encoded_gates();
  stats_.max_cone_gates =
      std::max<std::uint64_t>(stats_.max_cone_gates, good_.encoded_gates());

  // A literal fixed to the stuck value, used to inject the fault.
  const Var stuck_var = solver_.new_var();
  const Lit stuck_lit = sat::mk_lit(stuck_var, /*negated=*/!fault.stuck);
  solver_.add_clause(stuck_lit);

  // Faulty copies for the encoded cone gates, in topological order. A
  // cone gate outside the support cannot reach any cone output and
  // needs no copy.
  for (GateId g : support_) {
    if (cone_[g.value()] != stamp_) continue;
    const Gate& gt = net_.gate(g);
    const Var fv = solver_.new_var();
    faulty_[g.value()] = fv;
    if (fault.site == Fault::Site::kStem && g == fault.gate) {
      // Inject: the faulty stem is the stuck constant.
      solver_.add_clause(sat::mk_lit(fv, !fault.stuck));
      continue;
    }
    in_.clear();
    for (ConnId c : gt.fanins) {
      if (fault.site == Fault::Site::kBranch && c == fault.conn) {
        in_.push_back(sat::mk_lit(stuck_var));
        continue;
      }
      const GateId src = net_.conn(c).from;
      const Var sv = cone_[src.value()] == stamp_ ? faulty_[src.value()]
                                                  : good_.var_of(src);
      assert(sv >= 0);
      in_.push_back(sat::mk_lit(sv));
    }
    encode_gate(solver_, gt.kind, fv, in_, clause_);
  }

  // Activation: the good value at the fault site must differ from the
  // stuck value (otherwise the fault is invisible by construction).
  solver_.add_clause(good_.lit_of(src_gate, /*negated=*/fault.stuck));

  // Detection: some primary output in the cone differs.
  diffs_.clear();
  for (GateId o : cone_outputs_) {
    const Lit g = good_.lit_of(o);
    const Lit fl = sat::mk_lit(faulty_[o.value()]);
    const Lit d = sat::mk_lit(solver_.new_var());
    solver_.add_clause(~d, g, fl);
    solver_.add_clause(~d, ~g, ~fl);
    solver_.add_clause(d, ~g, fl);
    solver_.add_clause(d, g, ~fl);
    diffs_.push_back(d);
  }
  solver_.add_clause(diffs_);

  const sat::Result r = solver_.solve();
  solver_.set_proof(nullptr);
  // Conflicts of every solve count, aborted ones included: the work was
  // done whether or not it produced a verdict.
  stats_.sat_conflicts += solver_.stats().conflicts;
  TestResult res;
  res.outcome = test_outcome_of(r);  // the one sat::Result mapping point
  switch (res.outcome) {
    case TestOutcome::kUntestable: {
      if (!capture_) break;
      auto cert = trace_.last_unsat_certificate();
      if (!cert) {
        // A kUnsat verdict always certifies; treat its absence as an
        // aborted query rather than license an unproved deletion.
        res.outcome = TestOutcome::kUnknown;
        break;
      }
      res.certificate =
          std::make_shared<proof::DratCertificate>(std::move(*cert));
      break;
    }
    case TestOutcome::kUnknown:
      // Resource exhaustion or an injected abort: NOT a redundancy proof.
      break;
    case TestOutcome::kTestable:
      res.vector = good_.model_inputs();
      break;
  }
  if (res.outcome == TestOutcome::kUntestable) ++stats_.untestable;
  if (res.outcome == TestOutcome::kUnknown) ++stats_.unknown_queries;
  if (res.outcome == TestOutcome::kTestable) ++stats_.testable;
  return res;
}

std::size_t count_redundancies(const Network& net) {
  std::size_t count = 0;
  Atpg atpg(net);
  for (const Fault& f : collapsed_faults(net))
    count += atpg.generate_test(f).outcome == TestOutcome::kUntestable;
  return count;
}

}  // namespace kms
