// Single stuck-at fault model (the paper's testing-sense "redundancy",
// Section I footnote 1: redundancy == untestable single stuck-at fault).
//
// Fault sites are gate output stems and fanout-branch connections. A
// branch site is only distinct from its stem when the stem has fanout
// greater than one — the situation at the heart of the KMS algorithm's
// duplication step. Structural equivalence collapsing (union-find over
// the textbook gate rules) shrinks the fault list before ATPG.
#pragma once

#include <string>
#include <vector>

#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"

namespace kms {

struct Fault {
  enum class Site { kStem, kBranch };
  Site site = Site::kStem;
  GateId gate;   ///< valid for kStem: fault on this gate's output
  ConnId conn;   ///< valid for kBranch: fault on this connection
  bool stuck = false;  ///< stuck-at value

  friend bool operator==(const Fault& a, const Fault& b) {
    return a.site == b.site && a.gate == b.gate && a.conn == b.conn &&
           a.stuck == b.stuck;
  }
};

/// True when `g` carries stem faults: a live gate, neither an output
/// marker nor a constant, with live fanout (a gate with none cannot
/// affect any output). Its connections are separate branch sites when
/// it has more than one live fanout.
bool is_fault_site(const Network& net, GateId g);

/// The gate whose output the fault sits on (stem gate or branch source).
GateId fault_source(const Network& net, const Fault& f);

/// Human-readable "g12(and)/SA0" or "conn g3->g7/SA1".
std::string format_fault(const Network& net, const Fault& f);

/// Full (uncollapsed) fault list: stem SA0/SA1 on every live logic gate
/// and primary input; branch SA0/SA1 on every connection whose source
/// has fanout > 1. Connections into kOutput markers are not separate
/// sites (the marker is not a gate).
std::vector<Fault> enumerate_faults(const Network& net);

/// Equivalence-collapsed fault list: the first member of each
/// structural equivalence class, in enumerate_faults order.
std::vector<Fault> collapsed_faults(const Network& net);

/// The structural equivalence classes of enumerate_faults(net), each
/// class's members in enumerate_faults order. Larger classes come
/// first; equally large ones by their smallest fault key. That key can
/// belong to a gate that is no fault site: a live gate without fanout
/// still joins its inputs' classes, so a class can order before
/// another whose first member comes earlier.
std::vector<std::vector<Fault>> fault_classes(const Network& net);

}  // namespace kms
