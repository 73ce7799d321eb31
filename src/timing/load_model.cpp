#include "src/timing/load_model.hpp"

namespace kms {

double LoadDelayModel::base(GateKind kind) const {
  switch (kind) {
    case GateKind::kNot:
      return base_not;
    case GateKind::kBuf:
      return base_buf;
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kNand:
    case GateKind::kNor:
      return base_and_or;
    case GateKind::kXor:
    case GateKind::kXnor:
    case GateKind::kMux:
      return 2.0 * base_and_or;  // complex gates cost about two levels
    default:
      return 0.0;
  }
}

double LoadDelayModel::gate_delay(GateKind kind, Drive drive,
                                  std::size_t fanout) const {
  return base(kind) +
         slope[static_cast<std::size_t>(drive)] *
             static_cast<double>(fanout);
}

void apply_load_delays(Network& net, const LoadDelayModel& model,
                       const DriveMap& drives) {
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    Gate& gt = net.gate(g);
    if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
    gt.delay = model.gate_delay(gt.kind, drives.get(g), gt.fanouts.size());
  }
}

std::vector<std::size_t> fanout_profile(const Network& net) {
  std::vector<std::size_t> profile(net.gate_capacity(), 0);
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i)
    if (!net.gate(GateId{i}).dead)
      profile[i] = net.gate(GateId{i}).fanouts.size();
  return profile;
}

std::size_t resize_for_fanout(Network& net, const LoadDelayModel& model,
                              DriveMap& drives,
                              const std::vector<std::size_t>& reference_fanout) {
  std::size_t upgraded = 0;
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
    const std::size_t now = net.gate(g).fanouts.size();
    const std::size_t ref = i < reference_fanout.size() ? reference_fanout[i]
                                                        : now;
    const Drive original = drives.get(g);
    const double budget = model.gate_delay(gt.kind, original, ref);
    Drive d = original;
    while (model.gate_delay(gt.kind, d, now) > budget + 1e-12 &&
           d != Drive::kSuper) {
      d = static_cast<Drive>(static_cast<std::uint8_t>(d) + 1);
    }
    if (d != original) {
      drives.set(g, d);
      ++upgraded;
    }
  }
  apply_load_delays(net, model, drives);
  return upgraded;
}

}  // namespace kms
