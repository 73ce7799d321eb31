#include "src/netlist/network.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <unordered_map>

#include "src/base/strings.hpp"

namespace kms {

namespace {
Network::SelfCheckHook g_self_check_hook = nullptr;
}  // namespace

void Network::set_self_check_hook(SelfCheckHook hook) {
  g_self_check_hook = hook;
}

Network::SelfCheckHook Network::self_check_hook() { return g_self_check_hook; }

void Network::self_check(const char* op) const {
  if (g_self_check_hook != nullptr && surgery_depth_ == 0)
    g_self_check_hook(*this, op);
}

/// RAII guard around a surgery operation: tracks nesting so that compound
/// operations (remove_output -> remove_gate -> remove_conn) self-check
/// once, when the outermost operation has restored all invariants.
class SurgeryScope {
 public:
  SurgeryScope(Network& net, const char* op)
      : net_(net), op_(op), pending_(std::uncaught_exceptions()) {
    ++net_.surgery_depth_;
  }
  SurgeryScope(const SurgeryScope&) = delete;
  SurgeryScope& operator=(const SurgeryScope&) = delete;
  ~SurgeryScope() noexcept(false) {
    --net_.surgery_depth_;
    // Skip the check when unwinding: the hook may throw, and a second
    // in-flight exception would terminate the process.
    if (std::uncaught_exceptions() == pending_) net_.self_check(op_);
  }

 private:
  Network& net_;
  const char* op_;
  const int pending_;
};

#ifdef KMS_CHECK_INVARIANTS
#define KMS_SURGERY(op) SurgeryScope kms_surgery_scope_(*this, op)
#else
#define KMS_SURGERY(op) ((void)0)
#endif

GateId Network::new_gate(GateKind kind, double delay, std::string name) {
  GateId id{static_cast<std::uint32_t>(gates_.size())};
  Gate g;
  g.kind = kind;
  g.delay = delay;
  g.name = std::move(name);
  gates_.push_back(std::move(g));
  return id;
}

GateId Network::add_input(std::string name, double arrival) {
  GateId id = new_gate(GateKind::kInput, 0.0, std::move(name));
  gates_[id.value()].arrival = arrival;
  inputs_.push_back(id);
  return id;
}

GateId Network::add_gate(GateKind kind, const std::vector<GateId>& fanins,
                         double delay, std::string name) {
  assert(kind != GateKind::kInput && kind != GateKind::kOutput);
  GateId id = new_gate(kind, delay, std::move(name));
  for (GateId f : fanins) connect(f, id);
  return id;
}

GateId Network::add_output(std::string name, GateId driver) {
  GateId id = new_gate(GateKind::kOutput, 0.0, std::move(name));
  connect(driver, id);
  outputs_.push_back(id);
  return id;
}

void Network::remove_output(std::size_t index) {
  KMS_SURGERY("remove_output");
  assert(index < outputs_.size());
  const GateId o = outputs_[index];
  remove_gate(o);
  outputs_.erase(outputs_.begin() + static_cast<std::ptrdiff_t>(index));
}

GateId Network::const_gate(bool value) {
  GateId& slot = value ? const1_ : const0_;
  if (!slot.is_valid() || gate(slot).dead) {
    slot = new_gate(value ? GateKind::kConst1 : GateKind::kConst0, 0.0,
                    value ? "const1" : "const0");
  }
  return slot;
}

ConnId Network::connect(GateId from, GateId to, double delay) {
  assert(!gate(from).dead && !gate(to).dead);
  ConnId id{static_cast<std::uint32_t>(conns_.size())};
  conns_.push_back(Conn{from, to, delay, false});
  gates_[from.value()].fanouts.push_back(id);
  gates_[to.value()].fanins.push_back(id);
  return id;
}

void Network::reroute_source(ConnId c, GateId new_from) {
  KMS_SURGERY("reroute_source");
  Conn& cn = conn(c);
  assert(!cn.dead && !gate(new_from).dead);
  if (trace_.trace != nullptr) {
    trace_.trace->note_touch(cn.to);
    trace_.trace->note_severed(cn.from, cn.to);
  }
  auto& outs = gates_[cn.from.value()].fanouts;
  outs.erase(std::find(outs.begin(), outs.end(), c));
  cn.from = new_from;
  gates_[new_from.value()].fanouts.push_back(c);
}

void Network::remove_conn(ConnId c) {
  Conn& cn = conn(c);
  assert(!cn.dead);
  if (trace_.trace != nullptr) trace_.trace->note_severed(cn.from, cn.to);
  auto& outs = gates_[cn.from.value()].fanouts;
  outs.erase(std::find(outs.begin(), outs.end(), c));
  auto& ins = gates_[cn.to.value()].fanins;
  ins.erase(std::find(ins.begin(), ins.end(), c));
  cn.dead = true;
}

void Network::set_conn_constant(ConnId c, bool value) {
  KMS_SURGERY("set_conn_constant");
  reroute_source(c, const_gate(value));
}

void Network::remove_gate(GateId g) {
  KMS_SURGERY("remove_gate");
  Gate& gt = gate(g);
  assert(!gt.dead);
  assert(gt.fanouts.empty() && "remove_gate requires no live fanouts");
  while (!gt.fanins.empty()) remove_conn(gt.fanins.back());
  gt.dead = true;
  note_touch(g);
}

GateId Network::duplicate_gate(GateId g) {
  KMS_SURGERY("duplicate_gate");
  // Copy the fields out first: new_gate() may reallocate gates_ and any
  // reference into it would dangle.
  assert(!gate(g).dead);
  const GateKind kind = gate(g).kind;
  const double delay = gate(g).delay;
  const double arrival = gate(g).arrival;
  const std::string name =
      gate(g).name.empty() ? std::string{} : gate(g).name + "_dup";
  GateId dup = new_gate(kind, delay, name);
  gates_[dup.value()].arrival = arrival;
  // Copy fanins with identical connection delays. Note: gate(g) may have
  // been invalidated by new_gate's reallocation, so re-fetch each time.
  const std::size_t n = gates_[g.value()].fanins.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Conn& fc = conn(gates_[g.value()].fanins[i]);
    connect(fc.from, dup, fc.delay);
  }
  return dup;
}

void Network::convert_to_constant(GateId g, bool value) {
  KMS_SURGERY("convert_to_constant");
  Gate& gt = gate(g);
  assert(is_logic(gt.kind));
  while (!gt.fanins.empty()) remove_conn(gt.fanins.back());
  gt.kind = value ? GateKind::kConst1 : GateKind::kConst0;
  gt.delay = 0.0;
  note_touch(g);
}

std::size_t Network::pin_of(ConnId c) const {
  const Conn& cn = conn(c);
  const auto& ins = gate(cn.to).fanins;
  auto it = std::find(ins.begin(), ins.end(), c);
  assert(it != ins.end());
  return static_cast<std::size_t>(it - ins.begin());
}

std::vector<GateId> Network::topo_order() const {
  std::vector<GateId> order;
  order.reserve(gates_.size());
  std::vector<std::uint32_t> pending(gates_.size(), 0);
  std::vector<GateId> ready;
  std::size_t live = 0;
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].dead) continue;
    ++live;
    std::uint32_t n = 0;
    for (ConnId c : gates_[i].fanins)
      if (!conn(c).dead) ++n;
    pending[i] = n;
    if (n == 0) ready.push_back(GateId{i});
  }
  while (!ready.empty()) {
    GateId g = ready.back();
    ready.pop_back();
    order.push_back(g);
    for (ConnId c : gate(g).fanouts) {
      if (conn(c).dead) continue;
      GateId to = conn(c).to;
      if (--pending[to.value()] == 0) ready.push_back(to);
    }
  }
  assert(order.size() == live && "network contains a cycle");
  return order;
}

std::size_t Network::count_gates(bool include_buffers) const {
  std::size_t n = 0;
  for (const Gate& g : gates_) {
    if (g.dead || !is_logic(g.kind) || is_constant(g.kind)) continue;
    if (!include_buffers && g.kind == GateKind::kBuf) continue;
    ++n;
  }
  return n;
}

std::size_t Network::count_live_conns() const {
  std::size_t n = 0;
  for (const Conn& c : conns_)
    if (!c.dead) ++n;
  return n;
}

std::size_t Network::depth() const {
  std::size_t best = 0;
  std::vector<std::size_t> level(gates_.size(), 0);
  for (GateId g : topo_order()) {
    const Gate& gt = gate(g);
    std::size_t in = 0;
    for (ConnId c : gt.fanins)
      if (!conn(c).dead) in = std::max(in, level[conn(c).from.value()]);
    const bool counts =
        is_logic(gt.kind) && !is_constant(gt.kind) && gt.kind != GateKind::kBuf;
    level[g.value()] = in + (counts ? 1 : 0);
    best = std::max(best, level[g.value()]);
  }
  return best;
}

std::size_t Network::max_fanout() const {
  std::size_t best = 0;
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.dead || !is_logic(g.kind) || is_constant(g.kind)) continue;
    best = std::max(best, live_fanout(GateId{i}));
  }
  return best;
}

std::size_t Network::sweep() {
  KMS_SURGERY("sweep");
  // In a DAG a logic gate reaches no primary output exactly when it has
  // no fanout or all its fanouts reach none, so peeling fanout-free
  // logic gates (primary inputs and output markers are not logic)
  // removes precisely the unreachable ones, without a traversal from
  // the outputs or an order. Removal only erases list entries, so the
  // surviving fanin and fanout lists keep their order either way.
  std::vector<GateId> peel;
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (!g.dead && is_logic(g.kind) && g.fanouts.empty())
      peel.push_back(GateId{i});
  }
  std::size_t removed = 0;
  std::vector<GateId> srcs;
  while (!peel.empty()) {
    const GateId g = peel.back();
    peel.pop_back();
    if (gate(g).dead) continue;  // queued once per connection it lost
    srcs.clear();
    for (ConnId c : gate(g).fanins) srcs.push_back(conn(c).from);
    remove_gate(g);
    ++removed;
    for (GateId s : srcs)
      if (is_logic(gate(s).kind) && gate(s).fanouts.empty()) peel.push_back(s);
  }
  return removed;
}

Network Network::clone_compact() const {
  Network out(name_);
  std::unordered_map<std::uint32_t, GateId> map;
  // Primary inputs first, in interface order (topological order would visit
  // them in an arbitrary order, which must not leak into the clone's PI
  // ordering — simulators and equivalence checks align networks by it).
  for (GateId i : inputs_)
    map[i.value()] = out.add_input(gate(i).name, gate(i).arrival);
  for (GateId g : topo_order()) {
    const Gate& gt = gate(g);
    GateId ng;
    switch (gt.kind) {
      case GateKind::kInput:
        continue;
      case GateKind::kConst0:
        ng = out.const_gate(false);
        break;
      case GateKind::kConst1:
        ng = out.const_gate(true);
        break;
      case GateKind::kOutput: {
        // Re-added below in interface order.
        continue;
      }
      default: {
        ng = out.new_gate(gt.kind, gt.delay, gt.name);
        for (ConnId c : gt.fanins) {
          if (conn(c).dead) continue;
          out.connect(map.at(conn(c).from.value()), ng, conn(c).delay);
        }
        break;
      }
    }
    map[g.value()] = ng;
  }
  for (GateId o : outputs_) {
    const Gate& og = gate(o);
    assert(!og.dead && og.fanins.size() == 1);
    const Conn& c = conn(og.fanins[0]);
    GateId no = out.add_output(og.name, map.at(c.from.value()));
    out.conn(out.gate(no).fanins[0]).delay = c.delay;
  }
  return out;
}

std::string Network::check() const {
  for (std::uint32_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = conns_[i];
    if (c.dead) continue;
    const Gate& from = gate(c.from);
    const Gate& to = gate(c.to);
    if (from.dead || to.dead)
      return str_format("conn %u touches a dead gate", i);
    if (std::find(from.fanouts.begin(), from.fanouts.end(), ConnId{i}) ==
        from.fanouts.end())
      return str_format("conn %u missing from fanout list of its source", i);
    if (std::find(to.fanins.begin(), to.fanins.end(), ConnId{i}) ==
        to.fanins.end())
      return str_format("conn %u missing from fanin list of its sink", i);
  }
  for (std::uint32_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    if (g.dead) continue;
    std::size_t nin = 0;
    for (ConnId c : g.fanins) {
      if (conn(c).dead) return str_format("gate %u lists a dead fanin", i);
      ++nin;
    }
    for (ConnId c : g.fanouts)
      if (conn(c).dead) return str_format("gate %u lists a dead fanout", i);
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kConst0:
      case GateKind::kConst1:
        if (nin != 0) return str_format("source gate %u has fanins", i);
        break;
      case GateKind::kOutput:
      case GateKind::kBuf:
      case GateKind::kNot:
        if (nin != 1)
          return str_format("gate %u (%s) must have exactly 1 fanin", i,
                            std::string(gate_kind_name(g.kind)).c_str());
        break;
      case GateKind::kMux:
        if (nin != 3) return str_format("mux %u must have 3 fanins", i);
        break;
      default:
        if (nin < 1)
          return str_format("gate %u (%s) has no fanins", i,
                            std::string(gate_kind_name(g.kind)).c_str());
        break;
    }
  }
  // topo_order asserts on cycles; replicate a soft check here.
  std::size_t live = 0;
  for (const Gate& g : gates_)
    if (!g.dead) ++live;
  if (topo_order().size() != live) return "network contains a cycle";
  return {};
}

}  // namespace kms
