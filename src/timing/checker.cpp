#include "src/timing/checker.hpp"

#include <cmath>
#include <string>

#include "src/base/strings.hpp"
#include "src/check/checker.hpp"

namespace kms {
namespace {

bool bad_delay(double d) { return !std::isfinite(d) || d < 0.0; }

}  // namespace

void run_timing_rules(const Network& net, Diagnostics* out,
                      std::size_t max_diagnostics, bool warnings) {
  CappedEmitter emit(out, max_diagnostics);

  // NL022: declared delays must be finite and nonnegative; declared
  // input arrivals must be finite (negative arrival is a legitimate,
  // if unusual, modelling choice — NaN/inf is never).
  bool delay_poisoned = false;
  for (std::uint32_t i = 0; i < net.gate_capacity() && !emit.full(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead) continue;
    if (bad_delay(gt.delay)) {
      delay_poisoned = true;
      emit.add("NL022",
               gate_label(net, g) +
                   str_format(" declares delay %g (must be finite and "
                              "nonnegative)",
                              gt.delay),
               g);
    }
    if (gt.kind == GateKind::kInput && !std::isfinite(gt.arrival)) {
      delay_poisoned = true;
      emit.add("NL022",
               gate_label(net, g) +
                   str_format(" declares arrival %g (must be finite)",
                              gt.arrival),
               g);
    }
  }
  for (std::uint32_t i = 0; i < net.conn_capacity() && !emit.full(); ++i) {
    const ConnId c{i};
    const Conn& cn = net.conn(c);
    if (cn.dead) continue;
    if (bad_delay(cn.delay)) {
      delay_poisoned = true;
      emit.add("NL022",
               "connection " + gate_label(net, cn.from) + " -> " +
                   gate_label(net, cn.to) +
                   str_format(" declares delay %g (must be finite and "
                              "nonnegative)",
                              cn.delay),
               GateId::invalid(), c);
    }
  }

  // NL023: a gate that reaches no primary output (suffix = -inf) whose
  // arrival still exceeds the network delay bound — a stale cone that
  // any naive "max over all gates" bound would mistake for the critical
  // path. Skipped when NL022 fired (arrivals are then meaningless) and
  // on output-free networks (the bound degenerates to 0).
  if (!warnings || delay_poisoned || net.outputs().empty()) return;
  const std::vector<double> arrival = compute_arrival(net);
  const std::vector<double> suffix = compute_suffix(net);
  const double delay = delay_from_arrival(net, arrival);
  for (std::uint32_t i = 0; i < net.gate_capacity() && !emit.full(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead || gt.kind == GateKind::kOutput || is_constant(gt.kind))
      continue;
    if (suffix[i] != minus_infinity()) continue;
    if (arrival[i] > delay + 1e-9)
      emit.add("NL023",
               gate_label(net, g) +
                   str_format(" reaches no primary output but arrives at %g,"
                              " past the network delay bound %g",
                              arrival[i], delay),
               g);
  }
}

TimingAudit audit_timing_tables(const Network& net, const TimingTables& t,
                                double eps) {
  TimingAudit audit;
  CappedEmitter emit(&audit.diagnostics, 100);
  const auto has = [&](const std::vector<double>& v, std::uint32_t i) {
    return i < v.size();
  };

  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead || !has(t.arrival, i)) continue;
    ++audit.gates_checked;

    // NL024: arrival is monotone along every live connection — a sink
    // settles no earlier than any source plus the edge and gate delays.
    for (ConnId c : gt.fanins) {
      const Conn& cn = net.conn(c);
      const double from = t.arrival[cn.from.value()];
      if (from == minus_infinity()) continue;
      if (t.arrival[i] + eps < from + cn.delay + gt.delay)
        emit.add("NL024",
                 gate_label(net, g) +
                     str_format(" arrives at %g, earlier than fanin ",
                                t.arrival[i]) +
                     gate_label(net, cn.from) +
                     str_format(" implies (%g + %g + %g)", from, cn.delay,
                                gt.delay),
                 g, c);
    }

    // NL025: slack = required - arrival is never negative beyond
    // accumulation noise (the critical set sits at exactly zero).
    if (has(t.slack, i) && t.slack[i] < -eps)
      emit.add("NL025",
               gate_label(net, g) +
                   str_format(" has negative slack %g (required %g, "
                              "arrival %g)",
                              t.slack[i], t.required[i], t.arrival[i]),
               g);

    // NL026: no primary output settles after the network delay bound —
    // the bound is defined as their maximum.
    if (gt.kind == GateKind::kOutput && t.arrival[i] > t.delay + eps)
      emit.add("NL026",
               gate_label(net, g) +
                   str_format(" arrives at %g, past the network delay %g",
                              t.arrival[i], t.delay),
               g);

    // NL027: -infinity arrival marks exactly the constants and the
    // cones fed only by constants; a primary input or a gate with a
    // finite-arrival fanin can never carry it.
    if (t.arrival[i] == minus_infinity() && !is_constant(gt.kind)) {
      bool violates = gt.kind == GateKind::kInput;
      for (ConnId c : gt.fanins)
        if (t.arrival[net.conn(c).from.value()] != minus_infinity())
          violates = true;
      if (violates)
        emit.add("NL027",
                 gate_label(net, g) +
                     " carries -inf arrival but is not part of a "
                     "constant-fed cone",
                 g);
    }
  }
  return audit;
}

TimingAudit audit_incremental_sta(const Network& net,
                                  const IncrementalSta& sta, double eps) {
  // The semantic rules run on the from-scratch tables; NL028 then holds
  // the engine to them. Reference and incremental tables evaluate
  // identical kernels over identical operands, so the compare is exact —
  // any mismatch, even one ulp, means a missed dirty seed.
  const TimingTables ref = compute_timing(net);
  const std::vector<double> ref_suffix = compute_suffix(net);

  TimingAudit audit = audit_timing_tables(net, ref, eps);
  CappedEmitter emit(&audit.diagnostics, 100);
  const auto compare = [&](const char* table, const std::vector<double>& got,
                           const std::vector<double>& want) {
    if (got.size() != want.size()) {
      emit.add("NL028",
               str_format("incremental %s table has %zu entries, full "
                          "recompute has %zu",
                          table, got.size(), want.size()));
      return;
    }
    for (std::uint32_t i = 0; i < want.size(); ++i) {
      if (got[i] == want[i]) continue;
      if (std::isnan(got[i]) && std::isnan(want[i])) continue;
      emit.add("NL028",
               str_format("incremental %s diverges at ", table) +
                   gate_label(net, GateId{i}) +
                   str_format(": maintained %.17g, recomputed %.17g", got[i],
                              want[i]),
               GateId{i});
    }
  };
  compare("arrival", sta.arrival(), ref.arrival);
  compare("suffix", sta.suffix(), ref_suffix);
  if (sta.delay() != ref.delay)
    emit.add("NL028",
             str_format("incremental delay bound %.17g, recomputed %.17g",
                        sta.delay(), ref.delay));
  // The repairs visit gates in the order of the maintained key; it must
  // increase along every live connection, or a repair could evaluate a
  // gate before one of its dirty predecessors.
  const std::vector<std::uint32_t>& key = sta.topo_key();
  for (std::uint32_t i = 0; i < net.conn_capacity(); ++i) {
    const Conn& c = net.conn(ConnId{i});
    if (c.dead) continue;
    const std::uint32_t from = c.from.value(), to = c.to.value();
    if (from < key.size() && to < key.size() && key[from] < key[to]) continue;
    emit.add("NL028",
             "incremental repair order key does not increase from " +
                 gate_label(net, c.from) + " to " + gate_label(net, c.to),
             c.to);
  }
  return audit;
}

void enforce_timing_invariants(const Network& net, const IncrementalSta& sta,
                               const char* where) {
  const TimingAudit audit = audit_incremental_sta(net, sta);
  if (audit.ok()) return;
  throw CheckFailure("timing invariant violation at " + std::string(where) +
                     ":\n" + audit.diagnostics.to_text("  "));
}

}  // namespace kms
