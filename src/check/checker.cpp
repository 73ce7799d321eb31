#include "src/check/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/strings.hpp"

namespace kms {
namespace {

bool valid_gate(const Network& net, GateId g) {
  return g.is_valid() && g.value() < net.gate_capacity();
}

bool valid_conn(const Network& net, ConnId c) {
  return c.is_valid() && c.value() < net.conn_capacity();
}

bool live_gate(const Network& net, GateId g) {
  return valid_gate(net, g) && !net.gate(g).dead;
}

bool live_conn(const Network& net, ConnId c) {
  return valid_conn(net, c) && !net.conn(c).dead;
}

std::string id_label(const char* what, std::uint32_t v) {
  return str_format("%s %u", what, v);
}

/// Collects diagnostics for one run, enforcing the cap.
class Checker {
 public:
  Checker(const Network& net, std::size_t cap)
      : net_(net), emit_(&diags_, cap) {}

  Diagnostics take() && { return std::move(diags_); }

  bool full() const { return emit_.full(); }

  void add(const char* rule, std::string message,
           GateId gate = GateId::invalid(), ConnId conn = ConnId::invalid()) {
    emit_.add(rule, std::move(message), gate, conn);
  }

  // ---- rules --------------------------------------------------------------

  /// NL002/NL003/NL004 + NL012 (connection half): every live connection
  /// joins two live gates and appears in both endpoint lists.
  void check_connections() {
    for (std::uint32_t i = 0; i < net_.conn_capacity() && !full(); ++i) {
      const ConnId c{i};
      const Conn& cn = net_.conn(c);
      if (cn.dead) continue;
      if (cn.delay < 0.0)
        add("NL012",
            str_format("conn %u has negative delay %g", i, cn.delay),
            GateId::invalid(), c);
      bool endpoints_ok = true;
      if (!live_gate(net_, cn.from)) {
        add("NL002",
            "live conn " + std::to_string(i) + " has dead or invalid source " +
                id_label("gate", cn.from.value()),
            cn.from, c);
        endpoints_ok = false;
      }
      if (!live_gate(net_, cn.to)) {
        add("NL002",
            "live conn " + std::to_string(i) + " has dead or invalid sink " +
                id_label("gate", cn.to.value()),
            cn.to, c);
        endpoints_ok = false;
      }
      if (!endpoints_ok) continue;
      const auto& outs = net_.gate(cn.from).fanouts;
      if (std::find(outs.begin(), outs.end(), c) == outs.end())
        add("NL003",
            "live conn " + std::to_string(i) +
                " missing from the fanout list of its source " +
                gate_label(net_, cn.from),
            cn.from, c);
      const auto& ins = net_.gate(cn.to).fanins;
      if (std::find(ins.begin(), ins.end(), c) == ins.end())
        add("NL004",
            "live conn " + std::to_string(i) +
                " missing from the fanin list of its sink " +
                gate_label(net_, cn.to),
            cn.to, c);
    }
  }

  /// NL005/NL006/NL007/NL008 + NL012 (gate half): per-gate list hygiene
  /// and pin shape.
  void check_gates() {
    for (std::uint32_t i = 0; i < net_.gate_capacity() && !full(); ++i) {
      const GateId g{i};
      const Gate& gt = net_.gate(g);
      if (gt.dead) continue;
      if (gt.delay < 0.0)
        add("NL012",
            gate_label(net_, g) +
                str_format(" has negative delay %g", gt.delay),
            g);

      std::size_t live_fanins = 0;
      check_pin_list(g, gt.fanins, /*is_fanin=*/true, &live_fanins);
      std::size_t live_fanouts = 0;
      check_pin_list(g, gt.fanouts, /*is_fanin=*/false, &live_fanouts);

      const char* shape = nullptr;
      switch (gt.kind) {
        case GateKind::kInput:
        case GateKind::kConst0:
        case GateKind::kConst1:
          if (live_fanins != 0) shape = "must have no fanins";
          break;
        case GateKind::kOutput:
        case GateKind::kBuf:
        case GateKind::kNot:
          if (live_fanins != 1) shape = "must have exactly 1 fanin";
          break;
        case GateKind::kMux:
          if (live_fanins != 3) shape = "must have exactly 3 fanins";
          break;
        default:
          if (live_fanins < 1) shape = "must have at least 1 fanin";
          break;
      }
      if (shape != nullptr)
        add("NL008",
            gate_label(net_, g) + " " + shape +
                str_format(" (has %zu)", live_fanins),
            g);
    }
  }

  void check_pin_list(GateId g, const std::vector<ConnId>& list, bool is_fanin,
                      std::size_t* live_count) {
    const char* rule = is_fanin ? "NL005" : "NL006";
    const char* side = is_fanin ? "fanin" : "fanout";
    for (std::size_t p = 0; p < list.size(); ++p) {
      const ConnId c = list[p];
      if (!valid_conn(net_, c)) {
        add(rule,
            gate_label(net_, g) +
                str_format(" %s %zu is out-of-range conn id %u", side, p,
                           c.value()),
            g, c);
        continue;
      }
      if (net_.conn(c).dead) {
        add(rule,
            gate_label(net_, g) +
                str_format(" %s %zu references dead conn %u", side, p,
                           c.value()),
            g, c);
        continue;
      }
      const GateId back = is_fanin ? net_.conn(c).to : net_.conn(c).from;
      if (back != g) {
        add(rule,
            gate_label(net_, g) +
                str_format(" %s %zu lists conn %u, whose %s is ", side, p,
                           c.value(), is_fanin ? "sink" : "source") +
                id_label("gate", back.value()),
            g, c);
        continue;
      }
      ++*live_count;
      if (std::count(list.begin(), list.begin() + static_cast<std::ptrdiff_t>(p),
                     c) > 0)
        add("NL007",
            gate_label(net_, g) +
                str_format(" lists conn %u more than once in its %s list",
                           c.value(), side),
            g, c);
    }
  }

  /// NL009/NL010: the inputs()/outputs() registries and the kInput/kOutput
  /// gates must agree exactly, and output markers must drive nothing.
  void check_markers() {
    check_registry(net_.outputs(), GateKind::kOutput, "NL009", "output");
    check_registry(net_.inputs(), GateKind::kInput, "NL010", "input");
    for (const GateId o : net_.outputs()) {
      if (!live_gate(net_, o) || net_.gate(o).kind != GateKind::kOutput)
        continue;
      for (const ConnId c : net_.gate(o).fanouts) {
        if (!live_conn(net_, c)) continue;
        add("NL009",
            "output marker " + gate_label(net_, o) +
                str_format(" drives conn %u; markers must have no fanouts",
                           c.value()),
            o, c);
      }
    }
  }

  void check_registry(const std::vector<GateId>& reg, GateKind kind,
                      const char* rule, const char* what) {
    std::unordered_map<std::uint32_t, std::size_t> seen;
    for (std::size_t i = 0; i < reg.size() && !full(); ++i) {
      const GateId g = reg[i];
      if (!valid_gate(net_, g)) {
        add(rule, str_format("%ss()[%zu] is out-of-range gate id %u", what, i,
                             g.value()));
        continue;
      }
      if (net_.gate(g).dead) {
        add(rule,
            str_format("%ss()[%zu] references dead ", what, i) +
                id_label("gate", g.value()),
            g);
        continue;
      }
      if (net_.gate(g).kind != kind) {
        add(rule,
            str_format("%ss()[%zu] is ", what, i) + gate_label(net_, g) +
                ", not a " + std::string(what) + " marker",
            g);
        continue;
      }
      if (++seen[g.value()] == 2)
        add(rule,
            str_format("%ss() lists ", what) + gate_label(net_, g) +
                " more than once",
            g);
    }
    for (std::uint32_t i = 0; i < net_.gate_capacity() && !full(); ++i) {
      const GateId g{i};
      if (net_.gate(g).dead || net_.gate(g).kind != kind) continue;
      if (seen.find(i) == seen.end())
        add(rule,
            gate_label(net_, g) +
                str_format(" is live but absent from %ss()", what),
            g);
    }
  }

  /// NL011: the const_gate() contract — at most one live constant per
  /// polarity (duplicates are functionally harmless, hence a warning).
  void check_constants() {
    for (const GateKind kind : {GateKind::kConst0, GateKind::kConst1}) {
      GateId first = GateId::invalid();
      for (std::uint32_t i = 0; i < net_.gate_capacity(); ++i) {
        const GateId g{i};
        if (net_.gate(g).dead || net_.gate(g).kind != kind) continue;
        if (!first.is_valid()) {
          first = g;
        } else {
          add("NL011",
              gate_label(net_, g) + " duplicates " + gate_label(net_, first),
              g);
        }
      }
    }
  }

  /// NL001: acyclicity via iterative Tarjan SCC over the live subgraph.
  /// Reports each nontrivial SCC (and each self-loop) once.
  void check_acyclic() {
    const std::uint32_t n = net_.gate_capacity();
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (std::uint32_t i = 0; i < net_.conn_capacity(); ++i) {
      const Conn& cn = net_.conn(ConnId{i});
      if (cn.dead || !live_gate(net_, cn.from) || !live_gate(net_, cn.to))
        continue;
      if (cn.from == cn.to) {
        add("NL001",
            str_format("self-loop: conn %u connects ", i) +
                gate_label(net_, cn.from) + " to itself",
            cn.from, ConnId{i});
        continue;
      }
      adj[cn.from.value()].push_back(cn.to.value());
    }

    constexpr std::uint32_t kUnvisited = 0xffffffffu;
    std::vector<std::uint32_t> index(n, kUnvisited), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<std::uint32_t> stack;
    struct Frame {
      std::uint32_t v;
      std::size_t child;
    };
    std::vector<Frame> dfs;
    std::uint32_t next_index = 0;

    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kUnvisited || net_.gate(GateId{root}).dead) continue;
      dfs.push_back({root, 0});
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        const std::uint32_t v = f.v;
        if (f.child == 0) {
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = 1;
        }
        if (f.child < adj[v].size()) {
          const std::uint32_t w = adj[v][f.child++];
          if (index[w] == kUnvisited) {
            dfs.push_back({w, 0});
          } else if (on_stack[w]) {
            low[v] = std::min(low[v], index[w]);
          }
          continue;
        }
        dfs.pop_back();
        if (!dfs.empty())
          low[dfs.back().v] = std::min(low[dfs.back().v], low[v]);
        if (low[v] == index[v]) {
          std::vector<std::uint32_t> scc;
          for (;;) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc.push_back(w);
            if (w == v) break;
          }
          if (scc.size() > 1) report_cycle(scc);
        }
      }
    }
  }

  void report_cycle(const std::vector<std::uint32_t>& scc) {
    std::string members;
    const std::size_t shown = std::min<std::size_t>(scc.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i > 0) members += ", ";
      members += gate_label(net_, GateId{scc[i]});
    }
    if (scc.size() > shown)
      members += str_format(", ... (%zu more)", scc.size() - shown);
    add("NL001",
        str_format("cycle through %zu gates: ", scc.size()) + members,
        GateId{scc[0]});
  }

  /// NL013/NL015: primary-output reachability of live logic gates, and
  /// primary inputs that drive nothing.
  void check_reachability() {
    if (!net_.outputs().empty()) {
      std::vector<char> reach(net_.gate_capacity(), 0);
      std::vector<GateId> work;
      for (const GateId o : net_.outputs()) {
        if (!live_gate(net_, o)) continue;
        reach[o.value()] = 1;
        work.push_back(o);
      }
      while (!work.empty()) {
        const GateId g = work.back();
        work.pop_back();
        for (const ConnId c : net_.gate(g).fanins) {
          if (!live_conn(net_, c)) continue;
          const GateId f = net_.conn(c).from;
          if (!live_gate(net_, f) || reach[f.value()]) continue;
          reach[f.value()] = 1;
          work.push_back(f);
        }
      }
      for (std::uint32_t i = 0; i < net_.gate_capacity() && !full(); ++i) {
        const GateId g{i};
        const Gate& gt = net_.gate(g);
        if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
        if (!reach[i])
          add("NL013",
              gate_label(net_, g) + " cannot reach any primary output", g);
      }
    }
    for (const GateId pi : net_.inputs()) {
      if (!live_gate(net_, pi) || net_.gate(pi).kind != GateKind::kInput)
        continue;
      bool drives = false;
      for (const ConnId c : net_.gate(pi).fanouts)
        if (live_conn(net_, c)) {
          drives = true;
          break;
        }
      if (!drives)
        add("NL015",
            "primary input " + gate_label(net_, pi) +
                " drives no live connection",
            pi);
    }
  }

  /// NL016: a live logic gate still fed by a constant gate — constant
  /// propagation/sweep stopped short. Functionally harmless (hence a
  /// warning), but it skews the gate counts and delay numbers every
  /// downstream pass reports, and a redundancy-removal result that
  /// leaves one behind did not finish its own cleanup.
  void check_swept_constants() {
    for (std::uint32_t i = 0; i < net_.gate_capacity() && !full(); ++i) {
      const GateId g{i};
      const Gate& gt = net_.gate(g);
      if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
      for (const ConnId c : gt.fanins) {
        if (!live_conn(net_, c)) continue;
        const GateId src = net_.conn(c).from;
        if (!live_gate(net_, src) || !is_constant(net_.gate(src).kind))
          continue;
        add("NL016",
            gate_label(net_, g) + " is driven by constant " +
                gate_label(net_, src) + " via " +
                str_format("conn %u", c.value()) +
                "; run constant propagation and sweep",
            g, c);
        break;  // one finding per gate is enough to flag the miss
      }
    }
  }

  /// NL014: duplicate interface names break BLIF round-trips (the writer
  /// uniquifies with suffixes, silently renaming ports).
  void check_names() {
    std::unordered_map<std::string, GateId> seen;
    auto visit = [&](GateId g) {
      if (!live_gate(net_, g)) return;
      const std::string& name = net_.gate(g).name;
      if (name.empty()) return;
      auto [it, inserted] = seen.emplace(name, g);
      if (!inserted && it->second != g)
        add("NL014",
            "interface name '" + name + "' used by both " +
                gate_label(net_, it->second) + " and " + gate_label(net_, g),
            g);
    };
    for (const GateId g : net_.inputs()) visit(g);
    for (const GateId g : net_.outputs()) visit(g);
  }

 private:
  const Network& net_;
  Diagnostics diags_;
  CappedEmitter emit_;
};

}  // namespace

std::string gate_label(const Network& net, GateId g) {
  if (!valid_gate(net, g)) return id_label("gate", g.value());
  const Gate& gt = net.gate(g);
  std::string label = id_label("gate", g.value());
  if (!gt.name.empty()) label += " '" + gt.name + "'";
  label += " (" + std::string(gate_kind_name(gt.kind)) + ")";
  return label;
}

Diagnostics NetworkChecker::run(const Network& net) const {
  Checker ck(net, opts_.max_diagnostics);
  ck.check_connections();
  ck.check_gates();
  ck.check_markers();
  ck.check_acyclic();
  if (opts_.warnings) {
    ck.check_constants();
    ck.check_reachability();
    ck.check_names();
    ck.check_swept_constants();
  }
  return std::move(ck).take();
}

void enforce_invariants(const Network& net, const char* where) {
  CheckOptions opts;
  opts.warnings = false;
  opts.max_diagnostics = 20;
  const Diagnostics diags = NetworkChecker(opts).run(net);
  if (diags.error_count() == 0) return;
  throw CheckFailure(
      str_format("netlist invariant violation after %s (%zu errors):\n",
                 where, diags.error_count()) +
      diags.to_text("  "));
}

}  // namespace kms
