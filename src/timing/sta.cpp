#include "src/timing/sta.hpp"

#include <algorithm>
#include <limits>

namespace kms {
namespace {

/// One gate's required time from its fanouts' table entries, against the
/// network delay (required(po) = delay): the min over live fanout
/// connections of `(required(sink) - d(sink)) - d(conn)`. +infinity
/// where no live fanout constrains the gate.
double local_required(const Network& net, GateId g,
                      const std::vector<double>& required, double delay) {
  const Gate& gt = net.gate(g);
  if (gt.kind == GateKind::kOutput) return delay;
  double req = std::numeric_limits<double>::infinity();
  for (ConnId c : gt.fanouts) {
    const Conn& cn = net.conn(c);
    req = std::min(req, (required[cn.to.value()] - net.gate(cn.to).delay) -
                            cn.delay);
  }
  return req;
}

}  // namespace

double minus_infinity() { return -std::numeric_limits<double>::infinity(); }

std::vector<double> compute_arrival(const Network& net) {
  std::vector<double> arrival(net.gate_capacity(), minus_infinity());
  for (GateId g : net.topo_order())
    arrival[g.value()] = local_arrival(net, g, arrival);
  return arrival;
}

std::vector<double> compute_suffix(const Network& net) {
  std::vector<double> suffix(net.gate_capacity(), minus_infinity());
  const auto order = net.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    suffix[it->value()] = local_suffix(net, *it, suffix);
  return suffix;
}

double delay_from_arrival(const Network& net,
                          const std::vector<double>& arrival) {
  double d = minus_infinity();
  for (GateId o : net.outputs()) d = std::max(d, arrival[o.value()]);
  return d == minus_infinity() ? 0.0 : d;
}

TimingTables compute_timing(const Network& net) {
  TimingTables t;
  t.arrival = compute_arrival(net);
  t.delay = delay_from_arrival(net, t.arrival);

  t.required.assign(net.gate_capacity(),
                    std::numeric_limits<double>::infinity());
  const auto order = net.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it)
    t.required[it->value()] = local_required(net, *it, t.required, t.delay);
  t.slack.resize(net.gate_capacity());
  for (std::size_t i = 0; i < t.slack.size(); ++i)
    t.slack[i] = t.required[i] - t.arrival[i];
  return t;
}

double topological_delay(const Network& net) {
  return delay_from_arrival(net, compute_arrival(net));
}

}  // namespace kms
