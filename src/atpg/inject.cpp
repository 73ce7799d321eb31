#include "src/atpg/inject.hpp"

namespace kms {

Network inject_fault(const Network& net, const Fault& fault) {
  Network copy = net;  // ids preserved by value copy
  if (fault.site == Fault::Site::kStem) {
    if (copy.gate(fault.gate).kind == GateKind::kInput) {
      // Primary inputs stay part of the interface: the stuck-at sits on
      // the input's wire, i.e. on every fanout connection.
      auto fanouts = copy.gate(fault.gate).fanouts;  // copy: we reroute
      for (ConnId c : fanouts) copy.set_conn_constant(c, fault.stuck);
    } else {
      copy.convert_to_constant(fault.gate, fault.stuck);
    }
  } else {
    copy.set_conn_constant(fault.conn, fault.stuck);
  }
  return copy;
}

}  // namespace kms
