#include "src/timing/incremental.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "src/timing/sta.hpp"

namespace kms {
namespace {

/// Heap key ordering gates by topological key (ties by id are
/// irrelevant: each gate enters a heap at most once per repair).
std::uint64_t key(std::uint32_t pos, std::uint32_t id) {
  return (static_cast<std::uint64_t>(pos) << 32) | id;
}

std::uint32_t id_of(std::uint64_t k) {
  return static_cast<std::uint32_t>(k & 0xffffffffu);
}

}  // namespace

IncrementalSta::IncrementalSta(const Network& net) : net_(net) { rebuild(); }

void IncrementalSta::reset_dead(std::uint32_t g) {
  // Canonical values compute_arrival/compute_suffix produce for a dead
  // (or unreachable-from-nothing) id: never visited by a pass, so the
  // initialization constants survive.
  arrival_[g] = minus_infinity();
  suffix_[g] = minus_infinity();
}

void IncrementalSta::grow() {
  arrival_.resize(net_.gate_capacity(), minus_infinity());
  suffix_.resize(net_.gate_capacity(), minus_infinity());
  gate_live_.resize(net_.gate_capacity(), 0);
  conn_live_.resize(net_.conn_capacity(), 0);
  key_.resize(net_.gate_capacity(), 0);
}

void IncrementalSta::order_edge(GateId u, GateId v) {
  if (key_[u.value()] < key_[v.value()]) return;
  key_[v.value()] = key_[u.value()] + 1;
  raise_stack_.assign(1, v);
  while (!raise_stack_.empty()) {
    const GateId g = raise_stack_.back();
    raise_stack_.pop_back();
    for (ConnId c : net_.gate(g).fanouts) {
      const GateId to = net_.conn(c).to;
      if (key_[g.value()] < key_[to.value()]) continue;
      key_[to.value()] = key_[g.value()] + 1;
      raise_stack_.push_back(to);
    }
  }
}

void IncrementalSta::rebuild() {
  ++stats_.rebuilds;
  const std::uint32_t gcap = net_.gate_capacity();
  const std::uint32_t ccap = net_.conn_capacity();
  arrival_.assign(gcap, minus_infinity());
  suffix_.assign(gcap, minus_infinity());
  gate_live_.assign(gcap, 0);
  conn_live_.assign(ccap, 0);
  for (std::uint32_t i = 0; i < gcap; ++i)
    gate_live_[i] = net_.gate(GateId{i}).dead ? 0 : 1;
  for (std::uint32_t i = 0; i < ccap; ++i)
    conn_live_[i] = net_.conn(ConnId{i}).dead ? 0 : 1;

  const std::vector<GateId> order = net_.topo_order();
  key_.assign(gcap, 0);
  for (GateId g : order) {
    arrival_[g.value()] = local_arrival(net_, g, arrival_);
    for (ConnId c : net_.gate(g).fanouts) {
      const std::uint32_t to = net_.conn(c).to.value();
      key_[to] = std::max(key_[to], key_[g.value()] + 1);
    }
  }
  delay_ = delay_from_arrival(net_, arrival_);
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    suffix_[it->value()] = local_suffix(net_, *it, suffix_);
}

void IncrementalSta::apply(const TransformTrace& trace) {
  ++stats_.applies;
  // Watermarks: ids past these were born since the last repair (ids grow
  // monotonically and tombstones never revive, so births and deaths are
  // both recoverable from a capacity/liveness diff).
  const std::uint32_t gate_mark = static_cast<std::uint32_t>(gate_live_.size());
  const std::uint32_t conn_mark = static_cast<std::uint32_t>(conn_live_.size());
  const std::uint32_t gcap = net_.gate_capacity();
  const std::uint32_t ccap = net_.conn_capacity();
  grow();
  fwd_dirty_.assign(gcap, 0);
  bwd_dirty_.assign(gcap, 0);

  // Seed 1: gate births and deaths.
  for (std::uint32_t i = 0; i < gcap; ++i) {
    const bool live = !net_.gate(GateId{i}).dead;
    if (i >= gate_mark) {
      gate_live_[i] = live ? 1 : 0;
      if (live) {
        fwd_dirty_[i] = 1;
        bwd_dirty_[i] = 1;
      } else {
        reset_dead(i);
      }
    } else if (gate_live_[i] && !live) {
      gate_live_[i] = 0;
      reset_dead(i);
    }
  }

  // Seed 2: connection births and deaths. A (dis)appearing edge moves
  // the sink's arrival and the source's suffix. Tombstoned
  // connections keep their endpoints, so deaths seed precisely.
  for (std::uint32_t i = 0; i < ccap; ++i) {
    const Conn& cn = net_.conn(ConnId{i});
    const bool live = !cn.dead;
    bool changed = false;
    if (i >= conn_mark) {
      conn_live_[i] = live ? 1 : 0;
      changed = true;
    } else if (conn_live_[i] && !live) {
      conn_live_[i] = 0;
      changed = true;
    }
    if (!changed) continue;
    if (gate_live_[cn.from.value()]) bwd_dirty_[cn.from.value()] = 1;
    if (gate_live_[cn.to.value()]) fwd_dirty_[cn.to.value()] = 1;
  }

  // Seed 3: the trace. Touched gates may have changed kind, delay, or
  // fanin sources (a reroute keeps the connection alive, so only the
  // trace can see it); their fanin sources read the touched gate's delay
  // through suffix and must re-pull. Severed edges dirty both
  // endpoints like a connection death.
  for (GateId g : trace.touched) {
    const std::uint32_t v = g.value();
    if (v >= gcap || !gate_live_[v]) continue;
    fwd_dirty_[v] = 1;
    bwd_dirty_[v] = 1;
    for (ConnId c : net_.gate(g).fanins) {
      const std::uint32_t src = net_.conn(c).from.value();
      if (gate_live_[src]) bwd_dirty_[src] = 1;
    }
  }
  for (const auto& [from, to] : trace.severed) {
    if (from.value() < gcap && gate_live_[from.value()])
      bwd_dirty_[from.value()] = 1;
    if (to.value() < gcap && gate_live_[to.value()])
      fwd_dirty_[to.value()] = 1;
  }

  // Repair the topological key. Only a born connection or one whose
  // source changed can break it: the latter's sink is touched or a
  // severed edge's sink (the TransformTrace contract), so checking the
  // fanins of born gates, touched gates and severed sinks, plus every
  // born connection, restores the key everywhere. Born gates start at
  // zero and rise above their fanins here.
  const auto order_fanins = [&](GateId g) {
    for (ConnId c : net_.gate(g).fanins) order_edge(net_.conn(c).from, g);
  };
  for (std::uint32_t i = gate_mark; i < gcap; ++i)
    if (gate_live_[i]) order_fanins(GateId{i});
  for (std::uint32_t i = conn_mark; i < ccap; ++i) {
    const Conn& cn = net_.conn(ConnId{i});
    if (!cn.dead) order_edge(cn.from, cn.to);
  }
  for (GateId g : trace.touched)
    if (g.value() < gcap && gate_live_[g.value()]) order_fanins(g);
  for (const auto& [from, to] : trace.severed)
    if (to.value() < gcap && gate_live_[to.value()]) order_fanins(to);

  // Forward repair: re-evaluate dirty gates in topological order; a
  // changed arrival dirties live fanout sinks (always downstream, so
  // each gate is visited at most once). Early cutoff: an unchanged
  // repaired value propagates nothing.
  {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        heap;
    for (std::uint32_t i = 0; i < gcap; ++i)
      if (fwd_dirty_[i]) heap.push(key(key_[i], i));
    while (!heap.empty()) {
      const std::uint32_t g = id_of(heap.top());
      heap.pop();
      fwd_dirty_[g] = 0;
      ++stats_.repaired;
      const double nv = local_arrival(net_, GateId{g}, arrival_);
      if (nv == arrival_[g]) continue;
      arrival_[g] = nv;
      for (ConnId c : net_.gate(GateId{g}).fanouts) {
        const Conn& cn = net_.conn(c);
        if (cn.dead) continue;
        const std::uint32_t to = cn.to.value();
        if (!gate_live_[to] || fwd_dirty_[to]) continue;
        fwd_dirty_[to] = 1;
        heap.push(key(key_[to], to));
      }
    }
  }

  delay_ = delay_from_arrival(net_, arrival_);

  // Backward repair: re-evaluate dirty suffixes in reverse topological
  // order; a changed suffix dirties the gate's live fanin sources.
  {
    std::priority_queue<std::uint64_t> heap;  // max position first
    for (std::uint32_t i = 0; i < gcap; ++i)
      if (bwd_dirty_[i]) heap.push(key(key_[i], i));
    while (!heap.empty()) {
      const std::uint32_t g = id_of(heap.top());
      heap.pop();
      bwd_dirty_[g] = 0;
      ++stats_.repaired;
      const double ns = local_suffix(net_, GateId{g}, suffix_);
      if (ns == suffix_[g]) continue;
      suffix_[g] = ns;
      for (ConnId c : net_.gate(GateId{g}).fanins) {
        const std::uint32_t src = net_.conn(c).from.value();
        if (!gate_live_[src] || bwd_dirty_[src]) continue;
        bwd_dirty_[src] = 1;
        heap.push(key(key_[src], src));
      }
    }
  }
}

}  // namespace kms
