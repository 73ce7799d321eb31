#include "src/atpg/fault_cache.hpp"

namespace kms {

std::vector<bool> edit_region(const Network& net,
                              const TransformTrace& trace) {
  const std::uint32_t cap = net.gate_capacity();
  std::vector<bool> region(cap, false);
  if (trace.empty()) return region;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> sev_fwd,
      sev_rev;
  for (const auto& [from, to] : trace.severed) {
    sev_fwd[from.value()].push_back(to.value());
    sev_rev[to.value()].push_back(from.value());
  }
  std::vector<bool> fwd(cap, false);  // TFO(touched)
  std::vector<std::uint32_t> stack;
  const auto push_fwd = [&](std::uint32_t v) {
    if (v < cap && !fwd[v]) {
      fwd[v] = true;
      stack.push_back(v);
    }
  };
  for (GateId g : trace.touched) push_fwd(g.value());
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    const Gate& gt = net.gate(GateId(v));
    if (!gt.dead)
      for (ConnId c : gt.fanouts) push_fwd(net.conn(c).to.value());
    if (const auto it = sev_fwd.find(v); it != sev_fwd.end())
      for (std::uint32_t t : it->second) push_fwd(t);
  }
  const auto push_rev = [&](std::uint32_t v) {
    if (v < cap && !region[v]) {
      region[v] = true;
      stack.push_back(v);
    }
  };
  for (std::uint32_t v = 0; v < cap; ++v)
    if (fwd[v]) push_rev(v);
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    const Gate& gt = net.gate(GateId(v));
    if (!gt.dead)
      for (ConnId c : gt.fanins) push_rev(net.conn(c).from.value());
    if (const auto it = sev_rev.find(v); it != sev_rev.end())
      for (std::uint32_t f : it->second) push_rev(f);
  }
  return region;
}

std::size_t FaultCache::invalidate(const Network& net,
                                  const TransformTrace& trace) {
  if (trace.empty() || map_.empty()) return 0;
  const std::vector<bool> region = edit_region(net, trace);
  const std::uint32_t cap = net.gate_capacity();
  std::size_t killed = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    const std::uint32_t src = it->second.value();
    if (src < cap && region[src]) {
      it = map_.erase(it);
      ++killed;
    } else {
      ++it;
    }
  }
  return killed;
}

}  // namespace kms
