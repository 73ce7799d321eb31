#include "src/gen/random_logic.hpp"

#include <cassert>
#include <string>

#include "src/base/rng.hpp"

namespace kms {

Network random_network(const RandomNetworkOptions& opts) {
  assert(opts.inputs > 0 && opts.outputs > 0 && opts.gates > 0);
  Rng rng(opts.seed);
  Network net("rand" + std::to_string(opts.seed));
  std::vector<GateId> pool;
  for (std::size_t i = 0; i < opts.inputs; ++i)
    pool.push_back(net.add_input("x" + std::to_string(i)));

  auto pick_source = [&]() -> GateId {
    if (rng.next_bool(opts.locality) && pool.size() > opts.inputs) {
      // Prefer one of the most recent quarter of signals.
      const std::size_t window = std::max<std::size_t>(1, pool.size() / 4);
      return pool[pool.size() - 1 - rng.next_below(window)];
    }
    return pool[rng.next_below(pool.size())];
  };

  static constexpr GateKind kKinds[] = {GateKind::kAnd,  GateKind::kOr,
                                        GateKind::kNand, GateKind::kNor,
                                        GateKind::kNot,  GateKind::kXor};
  const std::size_t kind_count = opts.allow_xor ? 6 : 5;
  for (std::size_t i = 0; i < opts.gates; ++i) {
    const GateKind kind = kKinds[rng.next_below(kind_count)];
    std::size_t fanin = kind == GateKind::kNot
                            ? 1
                            : 2 + rng.next_below(opts.max_fanin - 1);
    std::vector<GateId> srcs;
    for (std::size_t k = 0; k < fanin; ++k) srcs.push_back(pick_source());
    pool.push_back(net.add_gate(kind, srcs, 1.0));
  }

  // Outputs: gates with no fanout first, then the most recent gates.
  std::vector<GateId> sinks;
  for (std::size_t i = pool.size(); i-- > opts.inputs;)
    if (net.gate(pool[i]).fanouts.empty()) sinks.push_back(pool[i]);
  for (std::size_t i = pool.size(); sinks.size() < opts.outputs; --i) {
    assert(i > 0);
    const GateId g = pool[i - 1];
    if (std::find(sinks.begin(), sinks.end(), g) == sinks.end())
      sinks.push_back(g);
  }
  for (std::size_t o = 0; o < opts.outputs && o < sinks.size(); ++o)
    net.add_output("y" + std::to_string(o), sinks[o]);
  net.sweep();
  return net;
}

Network parity_tree(std::size_t inputs) {
  assert(inputs >= 2);
  Network net("parity" + std::to_string(inputs));
  std::vector<GateId> level;
  for (std::size_t i = 0; i < inputs; ++i)
    level.push_back(net.add_input("x" + std::to_string(i)));
  while (level.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2)
      next.push_back(
          net.add_gate(GateKind::kXor, {level[i], level[i + 1]}, 1.0));
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  net.add_output("parity", level[0]);
  return net;
}

Network comparator(std::size_t bits) {
  assert(bits > 0);
  Network net("cmp" + std::to_string(bits));
  std::vector<GateId> a, b;
  for (std::size_t i = 0; i < bits; ++i)
    a.push_back(net.add_input("a" + std::to_string(i)));
  for (std::size_t i = 0; i < bits; ++i)
    b.push_back(net.add_input("b" + std::to_string(i)));
  // gt = OR over i of (a_i & !b_i & all higher bits equal).
  GateId eq_prefix = GateId::invalid();  // conjunction of higher equalities
  std::vector<GateId> wins;
  for (std::size_t i = bits; i-- > 0;) {
    const GateId nb = net.add_gate(GateKind::kNot, {b[i]}, 1.0);
    const GateId ai_gt =
        net.add_gate(GateKind::kAnd, {a[i], nb}, 1.0);  // a_i > b_i
    const GateId eq_i =
        net.add_gate(GateKind::kXnor, {a[i], b[i]}, 1.0);  // a_i == b_i
    if (!eq_prefix.is_valid()) {
      wins.push_back(ai_gt);
      eq_prefix = eq_i;
    } else {
      wins.push_back(net.add_gate(GateKind::kAnd, {eq_prefix, ai_gt}, 1.0));
      eq_prefix = net.add_gate(GateKind::kAnd, {eq_prefix, eq_i}, 1.0);
    }
  }
  const GateId gt = wins.size() == 1
                        ? wins[0]
                        : net.add_gate(GateKind::kOr, wins, 1.0);
  net.add_output("gt", gt);
  net.add_output("eq", eq_prefix);
  return net;
}

}  // namespace kms
