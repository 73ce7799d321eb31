#include "src/timing/sensitize.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/core/verdict.hpp"
#include "src/proof/drat.hpp"
#include "src/timing/sta.hpp"

namespace kms {

Sensitizer::Sensitizer(Unencoded, const Network& net, SensitizationMode mode,
                       ResourceGovernor* governor,
                       const std::vector<double>* arrival_seed, bool capture)
    : net_(net),
      mode_(mode),
      capture_(capture),
      arrival_(arrival_seed ? arrival_seed : &own_arrival_),
      governor_(governor) {}

void Sensitizer::arm() {
  if (governor_) solver_.set_governor(governor_);
  if (capture_) {
    if (trace_)
      trace_->reset();
    else
      trace_ = std::make_unique<proof::DratTrace>();
    solver_.set_proof(trace_.get());
  }
  // Consecutive queries of the delay search differ by a few added side
  // constraints, which the previous model often satisfies already (61%
  // to 77% of computed_delay's queries on csa 4.2 to 16.4 and csa 8.2
  // x8); the verdict is the same, and a witness from the older model is
  // as valid.
  solver_.set_model_reuse(true);
}

Sensitizer::Sensitizer(const Network& net, SensitizationMode mode,
                       ResourceGovernor* governor,
                       const std::vector<double>* arrival_seed, bool capture)
    : Sensitizer(Unencoded{}, net, mode, governor, arrival_seed, capture) {
  // Only viability smoothing reads arrival times.
  if (arrival_ == &own_arrival_ && mode_ == SensitizationMode::kViability)
    own_arrival_ = compute_arrival(net_);
  // Encode only after the trace is listening: the certificate's formula
  // must contain every clause the network contributed.
  arm();
  enc_.emplace(net_, solver_);
}

Sensitizer::Sensitizer(const Network& net, SensitizationMode mode,
                       const Path& path, ResourceGovernor* governor,
                       const std::vector<double>* arrival_seed, bool capture)
    : Sensitizer(Unencoded{}, net, mode, governor, arrival_seed, capture) {
  retarget(path);
}

void Sensitizer::retarget(const Path& path) {
  // An unseeded arrival table follows the network as it is now.
  if (arrival_ == &own_arrival_ && mode_ == SensitizationMode::kViability)
    own_arrival_ = compute_arrival(net_);
  // DFS post-order over the fanin closure of the constrained side
  // inputs, roots in assumption order and fanins in pin order: every
  // gate follows its fanins, which is all the encoder needs. Built
  // before the solver is touched, so a path this mode rejects (a MUX on
  // it throws) leaves the previous target intact.
  if (seen_.size() < net_.gate_capacity())
    seen_.resize(net_.gate_capacity(), 0);
  ++stamp_;
  order_.clear();
  stack_.clear();
  for_each_path_constraint(path, [&](GateId root, bool) {
    if (seen_[root.value()] == stamp_) return;
    seen_[root.value()] = stamp_;
    stack_.push_back({root, 0});
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      const std::vector<ConnId>& fanins = net_.gate(f.gate).fanins;
      if (f.pin == fanins.size()) {
        order_.push_back(f.gate);
        stack_.pop_back();
        continue;
      }
      const GateId src = net_.conn(fanins[f.pin++]).from;
      if (seen_[src.value()] == stamp_) continue;
      seen_[src.value()] = stamp_;
      stack_.push_back({src, 0});
    }
  });
  solver_.reset();
  arm();
  if (enc_)
    enc_->reencode(order_);
  else
    enc_.emplace(net_, solver_, order_);
  queries_ = 0;
  aborted_ = false;
}

Sensitizer::~Sensitizer() = default;

template <class Fn>
void Sensitizer::for_each_side_input(GateId g, ConnId entering,
                                     double event_time, Fn&& fn) const {
  const Gate& gt = net_.gate(g);
  switch (gt.kind) {
    case GateKind::kOutput:
    case GateKind::kBuf:
    case GateKind::kNot:
      return;  // no side inputs
    case GateKind::kXor:
    case GateKind::kXnor:
      return;  // an event always propagates through parity gates
    case GateKind::kAnd:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kNor: {
      const bool nc = noncontrolling_value(gt.kind);
      for (ConnId c : gt.fanins) {
        if (c == entering) continue;
        const Conn& cn = net_.conn(c);
        if (mode_ == SensitizationMode::kViability) {
          // Smooth late side-inputs: constrain only those that have
          // settled strictly before the event arrives (Section V.1).
          const double settle = (*arrival_)[cn.from.value()] + cn.delay;
          if (!(settle < event_time - 1e-9)) continue;
        }
        fn(cn.from, /*negated=*/!nc);
      }
      return;
    }
    case GateKind::kMux:
      throw std::invalid_argument(
          "Sensitizer: MUX along path; decompose_to_simple first");
    default:
      throw std::invalid_argument("Sensitizer: unexpected gate on path");
  }
}

template <class Fn>
void Sensitizer::for_each_path_constraint(const Path& path, Fn&& fn) const {
  // Event time along the path: starts at the source's arrival.
  double event_time = net_.gate(path.source).arrival;
  for (std::size_t i = 0; i < path.gates.size(); ++i) {
    const ConnId on_path = path.conns[i];
    const GateId g = path.gates[i];
    event_time += net_.conn(on_path).delay;  // event at the gate's input
    for_each_side_input(g, on_path, event_time, fn);
    event_time += net_.gate(g).delay;  // event leaves the gate's output
  }
}

void Sensitizer::side_constraints(GateId g, ConnId entering, double event_time,
                                  std::vector<sat::Lit>* out) const {
  for_each_side_input(g, entering, event_time, [&](GateId src, bool negated) {
    assert(enc_->encoded(src) && "side input outside the encoded closure");
    out->push_back(enc_->lit_of(src, negated));
  });
}

sat::Result Sensitizer::solve(const std::vector<sat::Lit>& assumptions) {
  ++queries_;
  const sat::Result r = solver_.solve(assumptions);
  if (!is_decided(r)) aborted_ = true;
  return r;
}

bool Sensitizer::satisfiable(const std::vector<sat::Lit>& assumptions) {
  return solve(assumptions) == sat::Result::kSat;
}

SensitizeResult Sensitizer::check(const Path& path) {
  std::vector<sat::Lit> assumptions;
  for_each_path_constraint(path, [&](GateId src, bool negated) {
    assert(enc_->encoded(src) && "path differs from the scoped one");
    assumptions.push_back(enc_->lit_of(src, negated));
  });
  SensitizeResult out;
  out.verdict = solve(assumptions);
  if (out.verdict == sat::Result::kSat) out.witness = enc_->model_inputs();
  if (out.verdict == sat::Result::kUnsat && capture_) {
    if (auto cert = trace_->last_unsat_certificate()) {
      out.certificate =
          std::make_shared<proof::DratCertificate>(std::move(*cert));
    } else {
      // Should be unreachable (a concluded kUnsat always certifies);
      // degrade rather than license a transformation without a proof.
      out.verdict = sat::Result::kUnknown;
    }
  }
  return out;
}

DelayReport computed_delay(const Network& net, SensitizationMode mode,
                           ResourceGovernor* governor, const StaSeed* seed) {
  constexpr std::size_t kMaxQueries = 200000;
  DelayReport report;
  Sensitizer sens(net, mode, governor, seed ? seed->arrival : nullptr);
  std::vector<double> own_suffix;
  if (seed == nullptr || seed->suffix == nullptr)
    own_suffix = compute_suffix(net);
  const std::vector<double>& suffix =
      (seed && seed->suffix) ? *seed->suffix : own_suffix;
  constexpr double kEps = 1e-9;

  // Fanout connections of every gate, sorted by completion bound
  // contribution (descending) so the most promising extension is tried
  // first and bound-pruning cuts whole tails.
  std::vector<std::vector<ConnId>> sorted_fanouts(net.gate_capacity());
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& gt = net.gate(GateId{i});
    if (gt.dead) continue;
    auto& outs = sorted_fanouts[i];
    outs = gt.fanouts;
    std::sort(outs.begin(), outs.end(), [&](ConnId a, ConnId b) {
      const Conn& ca = net.conn(a);
      const Conn& cb = net.conn(b);
      const double ba =
          ca.delay + net.gate(ca.to).delay + suffix[ca.to.value()];
      const double bb =
          cb.delay + net.gate(cb.to).delay + suffix[cb.to.value()];
      return ba > bb;
    });
  }

  double best = minus_infinity();
  Path best_path;
  std::vector<bool> best_cube;
  bool budget_exhausted = false;

  struct Frame {
    GateId gate;
    double head;               // event time at this gate's output
    std::size_t assume_mark;   // assumptions size on entry
    std::size_t next_child;    // index into sorted_fanouts
    ConnId via;                // connection taken to reach this gate
  };
  std::vector<Frame> spine;
  std::vector<sat::Lit> assumptions;

  // Sources, most promising first.
  std::vector<GateId> sources = net.inputs();
  std::sort(sources.begin(), sources.end(), [&](GateId a, GateId b) {
    return net.gate(a).arrival + suffix[a.value()] >
           net.gate(b).arrival + suffix[b.value()];
  });

  for (GateId pi : sources) {
    if (budget_exhausted) break;
    if (suffix[pi.value()] == minus_infinity()) continue;
    if (net.gate(pi).arrival + suffix[pi.value()] <= best + kEps) break;
    spine.clear();
    assumptions.clear();
    spine.push_back(Frame{pi, net.gate(pi).arrival, 0, 0, ConnId::invalid()});
    while (!spine.empty()) {
      Frame& f = spine.back();
      const Gate& gt = net.gate(f.gate);
      if (gt.kind == GateKind::kOutput) {
        // Complete sensitizable path (the last solve, done on entry,
        // was satisfiable). Record and backtrack.
        if (f.head > best + kEps) {
          best = f.head;
          best_path = Path{};
          best_path.source = spine.front().gate;
          for (std::size_t i = 1; i < spine.size(); ++i) {
            best_path.conns.push_back(spine[i].via);
            best_path.gates.push_back(spine[i].gate);
          }
          best_path.length = best;
          best_cube = sens.model_inputs();
        }
        assumptions.resize(f.assume_mark);
        spine.pop_back();
        continue;
      }
      const auto& children = sorted_fanouts[f.gate.value()];
      if (f.next_child >= children.size()) {
        assumptions.resize(f.assume_mark);
        spine.pop_back();
        continue;
      }
      const ConnId c = children[f.next_child++];
      const Conn& cn = net.conn(c);
      const GateId child = cn.to;
      const double event_at_input = f.head + cn.delay;
      const double bound =
          event_at_input + net.gate(child).delay + suffix[child.value()];
      if (bound <= best + kEps || bound == minus_infinity()) {
        // Children are sorted by bound: nothing further can win.
        f.next_child = children.size();
        continue;
      }
      const std::size_t mark = assumptions.size();
      sens.side_constraints(child, c, event_at_input, &assumptions);
      bool ok = true;
      // Only pay for a SAT call when this step constrained something
      // new, or when completing a path (need a model for the witness).
      if (assumptions.size() > mark ||
          net.gate(child).kind == GateKind::kOutput) {
        if (sens.queries() >= kMaxQueries) {
          budget_exhausted = true;
          break;
        }
        ok = sens.satisfiable(assumptions);
        if (sens.aborted()) {
          // kUnknown is not "unsensitizable": pruning on it could
          // under-report the delay. Abandon the search and fall back to
          // the topological upper bound below.
          budget_exhausted = true;
          break;
        }
      }
      if (!ok) {
        assumptions.resize(mark);
        continue;
      }
      spine.push_back(Frame{child, event_at_input + net.gate(child).delay,
                            mark, 0, c});
    }
  }

  report.paths_examined = sens.queries();
  if (budget_exhausted) {
    report.exact = false;
    report.aborted = sens.aborted();
    report.delay = topological_delay(net);  // safe upper bound
    return report;
  }
  if (best == minus_infinity()) {
    report.delay = 0.0;  // only constant outputs remain
    return report;
  }
  report.delay = best;
  report.witness = std::move(best_path);
  report.cube = std::move(best_cube);
  return report;
}

}  // namespace kms
