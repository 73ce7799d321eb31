#include "src/timing/path.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/timing/sta.hpp"

namespace kms {

double path_length(const Network& net, const Path& p) {
  double len = net.gate(p.source).arrival;
  for (ConnId c : p.conns) len += net.conn(c).delay;
  for (GateId g : p.gates) len += net.gate(g).delay;
  return len;
}

std::string format_path(const Network& net, const Path& p) {
  auto label = [&net](GateId g) {
    const Gate& gt = net.gate(g);
    std::string s = gt.name.empty() ? "g" + std::to_string(g.value())
                                    : gt.name;
    if (is_logic(gt.kind) && !is_constant(gt.kind)) {
      s += "(";
      s += gate_kind_name(gt.kind);
      s += ")";
    }
    return s;
  };
  std::string out = label(p.source);
  for (GateId g : p.gates) {
    out += " -> ";
    out += label(g);
  }
  return out;
}

PathEnumerator::PathEnumerator(const Network& net) : net_(net) {
  // Longest suffix from each gate's output to any primary output.
  own_suffix_ = compute_suffix(net);
  suffix_ = &own_suffix_;
  seed_sources();
}

PathEnumerator::PathEnumerator(const Network& net,
                               const std::vector<double>& suffix)
    : net_(net), suffix_(&suffix) {
  seed_sources();
}

void PathEnumerator::reseed() {
  if (suffix_ == &own_suffix_) {
    // Self-owned table: nothing maintains it for us, recompute. The
    // reassignment keeps own_suffix_'s address, so suffix_ stays valid.
    own_suffix_ = compute_suffix(net_);
  }
  nodes_.clear();
  heap_.clear();
  seed_sources();
}

void PathEnumerator::seed_sources() {
  // Seed one partial path per primary input that can reach an output.
  last_seed_visits_ = 0;
  for (GateId pi : net_.inputs()) {
    ++last_seed_visits_;
    if ((*suffix_)[pi.value()] == minus_infinity()) continue;
    const double head = net_.gate(pi).arrival;
    nodes_.push_back(Node{ConnId::invalid(), -1, pi, head});
    heap_.push_back(
        QueueItem{head + (*suffix_)[pi.value()],
                  static_cast<std::int32_t>(nodes_.size() - 1)});
  }
  std::make_heap(heap_.begin(), heap_.end());
}

void PathEnumerator::expand(std::int32_t node_idx) {
  const Node n = nodes_[node_idx];
  const Gate& gt = net_.gate(n.gate);
  for (ConnId c : gt.fanouts) {
    const Conn& cn = net_.conn(c);
    if ((*suffix_)[cn.to.value()] == minus_infinity() &&
        net_.gate(cn.to).kind != GateKind::kOutput)
      continue;
    const double head = n.head + cn.delay + net_.gate(cn.to).delay;
    nodes_.push_back(Node{c, node_idx, cn.to, head});
    heap_.push_back(QueueItem{head + (*suffix_)[cn.to.value()],
                              static_cast<std::int32_t>(nodes_.size() - 1)});
    std::push_heap(heap_.begin(), heap_.end());
  }
}

std::optional<Path> PathEnumerator::next() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const QueueItem top = heap_.back();
    heap_.pop_back();
    const Node& n = nodes_[top.node];
    if (net_.gate(n.gate).kind == GateKind::kOutput) {
      Path p;
      p.length = n.head;
      std::int32_t i = top.node;
      while (nodes_[i].parent >= 0) {
        p.conns.push_back(nodes_[i].via);
        p.gates.push_back(nodes_[i].gate);
        i = nodes_[i].parent;
      }
      p.source = nodes_[i].gate;
      std::reverse(p.conns.begin(), p.conns.end());
      std::reverse(p.gates.begin(), p.gates.end());
      return p;
    }
    expand(top.node);
  }
  return std::nullopt;
}

std::vector<Path> longest_paths(const Network& net, double epsilon,
                                std::size_t max_paths) {
  std::vector<Path> out;
  PathEnumerator en(net);
  auto first = en.next();
  if (!first) return out;
  const double best = first->length;
  out.push_back(std::move(*first));
  while (out.size() < max_paths) {
    auto p = en.next();
    if (!p || p->length < best - epsilon) break;
    out.push_back(std::move(*p));
  }
  return out;
}

}  // namespace kms
