// Combinational logic network (Definition 4.1 of the paper).
//
// A network is a DAG of gates and explicit connections. Both gates and
// connections carry delays, and paths are alternating sequences of
// connections and gates — exactly the model the paper needs in order to
// (a) attach distinct delays to distinct fanout branches and (b) describe
// circuits with more than one connection between the same pair of gates.
//
// Storage is index-based with tombstones: removing a gate or connection
// never invalidates other ids. Ids are never reused within a network's
// lifetime; `clone_compact()` produces a tombstone-free copy.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/ids.hpp"
#include "src/netlist/gate.hpp"

namespace kms {

/// A directed connection (edge) between two gates, with its own delay.
struct Conn {
  GateId from;
  GateId to;
  double delay = 0.0;
  bool dead = false;
};

/// A gate (node). `fanins` is ordered — pin i of the gate is fanins[i].
struct Gate {
  GateKind kind = GateKind::kAnd;
  double delay = 0.0;
  /// For kInput gates only: the input arrival time (Section III example
  /// uses c0 arriving at t=5 while all other inputs arrive at t=0).
  double arrival = 0.0;
  std::string name;
  std::vector<ConnId> fanins;
  std::vector<ConnId> fanouts;
  bool dead = false;
};

/// What one edit of a network changed, recorded by the Network surgery
/// primitives while a TraceScope attaches the trace (DESIGN.md §3 states
/// the contract). `touched` lists the sink of every rerouted connection,
/// every gate turned constant or removed, and every gate rewritten in
/// place through gate() or a fanin's conn() (Network::note_touch).
/// `severed` lists every edge (from, to) the edit cut: each removed
/// connection, and each rerouted connection's old source with its sink.
/// Gates and connections born during the edit are not listed: ids only
/// grow, so theirs lie at or above the capacities before the edit. An
/// entry may repeat.
struct TransformTrace {
  std::vector<GateId> touched;
  std::vector<std::pair<GateId, GateId>> severed;

  void note_touch(GateId g) { touched.push_back(g); }
  void note_severed(GateId from, GateId to) { severed.emplace_back(from, to); }
  bool empty() const { return touched.empty() && severed.empty(); }
};

class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // ---- construction -----------------------------------------------------

  /// Add a primary input with the given arrival time.
  GateId add_input(std::string name, double arrival = 0.0);

  /// Add a logic gate of `kind` with delay `delay`, fed by `fanins` through
  /// fresh zero-delay connections (in pin order).
  GateId add_gate(GateKind kind, const std::vector<GateId>& fanins,
                  double delay = 0.0, std::string name = {});

  /// Mark `driver` as a primary output (adds a zero-delay kOutput gate).
  GateId add_output(std::string name, GateId driver);

  /// Drop the output at position `index` in outputs() (the marker gate is
  /// removed; its cone survives until sweep()). Used to carve out
  /// single-output subcircuits like the paper's Fig. 4 carry cone.
  void remove_output(std::size_t index);

  /// Shared constant gates (created on first use).
  GateId const_gate(bool value);

  /// Add a connection from `from` to a new last pin of `to`.
  ConnId connect(GateId from, GateId to, double delay = 0.0);

  // ---- surgery (used by the KMS loop and by redundancy removal) ----------

  /// Change the source of connection `c` to `new_from`, preserving its pin
  /// position at the sink and its delay.
  void reroute_source(ConnId c, GateId new_from);

  /// Remove connection `c` from both endpoints and tombstone it. The pin
  /// positions of the sink's remaining fanins shift down.
  void remove_conn(ConnId c);

  /// Replace the source of connection `c` with the constant `value`.
  void set_conn_constant(ConnId c, bool value);

  /// Tombstone a gate. Precondition: no live fanouts. Removes fanin conns.
  void remove_gate(GateId g);

  /// Duplicate gate `g`: same kind/delay/name+suffix, same fanin sources
  /// with equal connection delays, and no fanouts. Returns the duplicate.
  GateId duplicate_gate(GateId g);

  /// Turn `g` into a constant gate of `value`, dropping all its fanins.
  void convert_to_constant(GateId g, bool value);

  /// Record `g` as touched in the attached trace, if any. The surgery
  /// primitives record their own edits; code that rewrites a gate's
  /// kind, delay or arrival, or a fanin connection's delay, through
  /// gate()/conn() calls this once for the gate.
  void note_touch(GateId g) {
    if (trace_.trace != nullptr) trace_.trace->note_touch(g);
  }

  // ---- access -------------------------------------------------------------

  Gate& gate(GateId g) { return gates_[g.value()]; }
  const Gate& gate(GateId g) const { return gates_[g.value()]; }
  Conn& conn(ConnId c) { return conns_[c.value()]; }
  const Conn& conn(ConnId c) const { return conns_[c.value()]; }

  std::uint32_t gate_capacity() const {
    return static_cast<std::uint32_t>(gates_.size());
  }
  std::uint32_t conn_capacity() const {
    return static_cast<std::uint32_t>(conns_.size());
  }

  const std::vector<GateId>& inputs() const { return inputs_; }
  const std::vector<GateId>& outputs() const { return outputs_; }

  /// Source gate feeding pin `pin` of `g`.
  GateId fanin_gate(GateId g, std::size_t pin) const {
    return conn(gate(g).fanins[pin]).from;
  }

  /// Pin position of connection `c` at its sink; asserts if absent.
  std::size_t pin_of(ConnId c) const;

  /// Live gates in topological order (inputs and constants first).
  /// Asserts the network is acyclic.
  std::vector<GateId> topo_order() const;

  /// Number of live logic gates. Buffers and constants are excluded by
  /// default — Table I counts "simple gates", and the zero-delay buffers
  /// introduced by the wire convention are not gates in that sense.
  std::size_t count_gates(bool include_buffers = false) const;

  std::size_t count_live_conns() const;

  /// Maximum number of logic gates along any input-to-output path
  /// (Definition 4.12).
  std::size_t depth() const;

  /// Maximum fanout over live logic gates; used to report the
  /// Section VI.2 fanout-growth discussion.
  std::size_t max_fanout() const;

  // ---- whole-network operations -------------------------------------------

  /// Remove logic gates that cannot reach any primary output, and constant
  /// gates with no fanout. Primary inputs are always kept. Returns the
  /// number of gates removed. Costs one scan of the gate table plus the
  /// removed gates' connections.
  std::size_t sweep();

  /// Deep copy without tombstones. Input/output order and names preserved.
  Network clone_compact() const;

  /// Verify structural invariants (endpoint symmetry, pin counts per gate
  /// kind, acyclicity). Returns an empty string if OK, else a description
  /// of the first violation. Used heavily in tests. The full rule-based
  /// checker with per-rule diagnostics lives in src/check/.
  std::string check() const;

  // ---- invariant self-checking --------------------------------------------

  /// Process-wide hook invoked after each completed surgery operation
  /// when the library is built with KMS_CHECK_INVARIANTS (and after each
  /// transform pass in any build). Installed by
  /// kms::install_invariant_self_checks() — see src/check/hooks.hpp.
  /// The hook may throw to abort the violating operation's caller.
  using SelfCheckHook = void (*)(const Network&, const char* op);
  static void set_self_check_hook(SelfCheckHook hook);
  static SelfCheckHook self_check_hook();

  /// Invoke the installed hook (if any), unless a surgery operation is
  /// still in progress on this network (nested ops self-check once, at
  /// the outermost completion, so the hook never sees a half-finished
  /// compound operation).
  void self_check(const char* op) const;

 private:
  friend class SurgeryScope;
  friend class TraceScope;

  /// The trace a TraceScope attached. A copy of the network starts
  /// without one, and assigning a network keeps the target's own.
  struct TraceLink {
    TransformTrace* trace = nullptr;
    TraceLink() = default;
    TraceLink(const TraceLink&) {}
    TraceLink& operator=(const TraceLink&) { return *this; }
  };

  GateId new_gate(GateKind kind, double delay, std::string name);

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<Conn> conns_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  GateId const0_ = GateId::invalid();
  GateId const1_ = GateId::invalid();
  /// Surgery re-entrancy depth; self_check fires only at depth zero.
  int surgery_depth_ = 0;
  TraceLink trace_;
};

/// Attaches `trace` to `net` for the scope's lifetime: every surgery
/// primitive run on `net` meanwhile records its edit there. Scopes do
/// not nest.
class TraceScope {
 public:
  TraceScope(Network& net, TransformTrace& trace) : net_(net) {
    assert(net_.trace_.trace == nullptr);
    net_.trace_.trace = &trace;
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { net_.trace_.trace = nullptr; }

 private:
  Network& net_;
};

}  // namespace kms
