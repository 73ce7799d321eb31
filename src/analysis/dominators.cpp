#include "src/analysis/dominators.hpp"

#include <cassert>

namespace kms::analysis {

DominatorTree::DominatorTree(const Network& net) : net_(net) {
  const std::uint32_t cap = net.gate_capacity();
  sink_ = cap;
  none_ = cap + 1;
  idom_.assign(cap, none_);
  reach_.assign(cap, 0);
  topo_pos_.assign(cap, 0);

  const std::vector<GateId> topo = net.topo_order();
  for (std::uint32_t i = 0; i < topo.size(); ++i)
    topo_pos_[topo[i].value()] = i;

  // Reverse topological sweep: every live fanout sink is finalized
  // before its source, so one pass computes the fixpoint on a DAG.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    const Gate& gt = net.gate(g);
    if (gt.kind == GateKind::kOutput) {
      reach_[g.value()] = 1;
      idom_[g.value()] = sink_;
      continue;
    }
    std::uint32_t meet = none_;
    for (ConnId c : gt.fanouts) {
      const GateId to = net.conn(c).to;
      if (!reach_[to.value()]) continue;
      meet = meet == none_ ? to.value() : intersect(meet, to.value());
    }
    if (meet != none_) {
      reach_[g.value()] = 1;
      idom_[g.value()] = meet;
    }
  }
}

/// Climb the deeper node's ipdom pointer until the walks meet. Post-
/// dominators of a gate always sit later in topological order, so the
/// node with the smaller topo position is the one that must climb.
std::uint32_t DominatorTree::intersect(std::uint32_t a,
                                       std::uint32_t b) const {
  while (a != b) {
    if (a == sink_) return b == sink_ ? a : intersect(b, a);
    if (b == sink_) {
      a = idom_[a];
      continue;
    }
    if (topo_pos_[a] < topo_pos_[b]) {
      a = idom_[a];
    } else {
      b = idom_[b];
    }
    assert(a != none_ && b != none_);
  }
  return a;
}

GateId DominatorTree::ipdom(GateId g) const {
  if (g.value() >= idom_.size()) return GateId::invalid();
  const std::uint32_t d = idom_[g.value()];
  if (d == sink_ || d == none_) return GateId::invalid();
  return GateId{d};
}

std::vector<GateId> DominatorTree::chain(GateId g) const {
  std::vector<GateId> out;
  if (!reaches_output(g)) return out;
  std::uint32_t cur = idom_[g.value()];
  while (cur != sink_ && cur != none_) {
    out.push_back(GateId{cur});
    cur = idom_[cur];
  }
  return out;
}

bool DominatorTree::dominates(GateId d, GateId g) const {
  if (!reaches_output(g) || !reaches_output(d)) return false;
  std::uint32_t cur = idom_[g.value()];
  while (cur != sink_ && cur != none_) {
    if (cur == d.value()) return true;
    cur = idom_[cur];
  }
  return false;
}

}  // namespace kms::analysis
