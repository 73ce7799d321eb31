#include "src/analysis/levels.hpp"

#include <algorithm>

namespace kms::analysis {

std::vector<std::uint32_t> gate_levels(const Network& net) {
  std::vector<std::uint32_t> level(net.gate_capacity(), 0);
  for (GateId g : net.topo_order()) {
    const Gate& gt = net.gate(g);
    std::uint32_t in_max = 0;
    for (ConnId c : gt.fanins)
      in_max = std::max(in_max, level[net.conn(c).from.value()]);
    if (gt.fanins.empty()) {
      level[g.value()] = 0;
    } else if (gt.kind == GateKind::kOutput) {
      level[g.value()] = in_max;
    } else {
      level[g.value()] = in_max + 1;
    }
  }
  return level;
}

}  // namespace kms::analysis
