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
  const std::uint32_t gcap = net_.gate_capacity();
  arrival_.resize(gcap, minus_infinity());
  suffix_.resize(gcap, minus_infinity());
  key_.resize(gcap, 0);
  fwd_dirty_.resize(gcap, 0);
  bwd_dirty_.resize(gcap, 0);
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
  arrival_.assign(gcap, minus_infinity());
  suffix_.assign(gcap, minus_infinity());
  fwd_dirty_.assign(gcap, 0);
  bwd_dirty_.assign(gcap, 0);
  conn_mark_ = net_.conn_capacity();

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
  // Watermarks: ids at or above these were born since the last repair
  // (ids only grow); every other change is in the trace.
  const std::uint32_t gate_mark = static_cast<std::uint32_t>(arrival_.size());
  const std::uint32_t conn_mark = conn_mark_;
  const std::uint32_t gcap = net_.gate_capacity();
  const std::uint32_t ccap = net_.conn_capacity();
  grow();
  conn_mark_ = ccap;
  const auto live = [&](GateId g) { return !net_.gate(g).dead; };
  const auto seed = [&](GateId g, std::vector<char>& dirty,
                        std::vector<std::uint32_t>& seeds) {
    if (!live(g) || dirty[g.value()]) return;
    dirty[g.value()] = 1;
    seeds.push_back(g.value());
  };
  const auto seed_fwd = [&](GateId g) { seed(g, fwd_dirty_, fwd_seeds_); };
  const auto seed_bwd = [&](GateId g) { seed(g, bwd_dirty_, bwd_seeds_); };

  // Born gates are evaluated both ways. A born connection, like a
  // severed edge, moves its sink's arrival and its source's suffix.
  for (std::uint32_t i = gate_mark; i < gcap; ++i) {
    seed_fwd(GateId{i});
    seed_bwd(GateId{i});
  }
  for (std::uint32_t i = conn_mark; i < ccap; ++i) {
    seed_bwd(net_.conn(ConnId{i}).from);
    seed_fwd(net_.conn(ConnId{i}).to);
  }
  for (const auto& [from, to] : trace.severed) {
    seed_bwd(from);
    seed_fwd(to);
  }
  // A touched gate that died takes the canonical dead values. A live
  // one may have changed kind, delay, fanin sources or fanin delays:
  // its arrival re-evaluates, and so do the suffixes of its fanin
  // sources, which read those delays. Its own suffix reads only its
  // fanouts.
  for (GateId g : trace.touched) {
    if (!live(g)) {
      reset_dead(g.value());
      continue;
    }
    seed_fwd(g);
    for (ConnId c : net_.gate(g).fanins) seed_bwd(net_.conn(c).from);
  }

  // Repair the topological key. Only a born connection or one whose
  // source changed can break it, and the latter's sink is touched (the
  // TransformTrace contract), so checking the fanins of born and
  // touched gates plus every born connection restores the key
  // everywhere. Born gates start at zero and rise above their fanins.
  const auto order_fanins = [&](GateId g) {
    for (ConnId c : net_.gate(g).fanins) order_edge(net_.conn(c).from, g);
  };
  for (std::uint32_t i = gate_mark; i < gcap; ++i)
    if (live(GateId{i})) order_fanins(GateId{i});
  for (std::uint32_t i = conn_mark; i < ccap; ++i) {
    const Conn& cn = net_.conn(ConnId{i});
    if (!cn.dead) order_edge(cn.from, cn.to);
  }
  for (GateId g : trace.touched)
    if (live(g)) order_fanins(g);

  // Forward repair: re-evaluate dirty gates in topological order; a
  // changed arrival dirties live fanout sinks (always downstream, so
  // each gate is visited at most once). Early cutoff: an unchanged
  // repaired value propagates nothing.
  {
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        heap;
    for (std::uint32_t i : fwd_seeds_) heap.push(key(key_[i], i));
    fwd_seeds_.clear();
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
        if (fwd_dirty_[to]) continue;
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
    for (std::uint32_t i : bwd_seeds_) heap.push(key(key_[i], i));
    bwd_seeds_.clear();
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
        if (bwd_dirty_[src]) continue;
        bwd_dirty_[src] = 1;
        heap.push(key(key_[src], src));
      }
    }
  }
}

}  // namespace kms
