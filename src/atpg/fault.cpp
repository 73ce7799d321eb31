#include "src/atpg/fault.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>

#include "src/base/strings.hpp"

namespace kms {
namespace {

/// Union-find over fault keys.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t size() const { return parent_.size(); }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

/// Fault keys: stem (g, v) is 2g + v; branch (c, v) is 2c + v after all
/// the stem keys. Every live gate's stem has a key, fault site or not.
std::size_t stem_key(GateId g, bool v) {
  return 2 * static_cast<std::size_t>(g.value()) + (v ? 1 : 0);
}

std::size_t branch_key(const Network& net, ConnId c, bool v) {
  return 2 * static_cast<std::size_t>(net.gate_capacity()) +
         2 * static_cast<std::size_t>(c.value()) + (v ? 1 : 0);
}

std::size_t fault_key(const Network& net, const Fault& f) {
  return f.site == Fault::Site::kStem ? stem_key(f.gate, f.stuck)
                                      : branch_key(net, f.conn, f.stuck);
}

/// Unite the keys of structurally equivalent faults under the textbook
/// gate rules. A class's root is its smallest key.
UnionFind equivalences(const Network& net) {
  // Key of the fault equivalent to "pin of gate `to` via conn c stuck at v":
  // the branch site if the source has fanout > 1, else the source's stem.
  auto input_site_key = [&net](ConnId c, bool v) {
    const GateId src = net.conn(c).from;
    return net.gate(src).fanouts.size() > 1 ? branch_key(net, c, v)
                                            : stem_key(src, v);
  };

  UnionFind uf(2 * static_cast<std::size_t>(net.gate_capacity()) +
               2 * static_cast<std::size_t>(net.conn_capacity()));
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead) continue;
    switch (gt.kind) {
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor: {
        const bool cv = controlling_value(gt.kind);
        // input SA(cv) == output SA(cv ^ inverted): e.g. AND input SA0 ==
        // output SA0, NAND input SA0 == output SA1.
        const bool out_stuck = is_inverting(gt.kind) ? !cv : cv;
        for (ConnId c : gt.fanins)
          uf.unite(input_site_key(c, cv), stem_key(g, out_stuck));
        break;
      }
      case GateKind::kBuf:
      case GateKind::kNot: {
        const bool inv = gt.kind == GateKind::kNot;
        for (bool v : {false, true})
          uf.unite(input_site_key(gt.fanins[0], v), stem_key(g, inv ? !v : v));
        break;
      }
      case GateKind::kOutput: {
        // The output marker is transparent: a fault on its input conn is
        // the same wire as the driver's stem/branch — already covered by
        // input_site_key; nothing to unite against (markers have no stem).
        break;
      }
      default:
        break;  // XOR/XNOR/MUX: no structural equivalences used
    }
  }
  return uf;
}

}  // namespace

bool is_fault_site(const Network& net, GateId g) {
  const Gate& gt = net.gate(g);
  if (gt.dead) return false;
  if (gt.kind == GateKind::kOutput) return false;
  if (is_constant(gt.kind)) return false;
  return !net.gate(g).fanouts.empty();
}

GateId fault_source(const Network& net, const Fault& f) {
  return f.site == Fault::Site::kStem ? f.gate : net.conn(f.conn).from;
}

std::string format_fault(const Network& net, const Fault& f) {
  auto label = [&net](GateId g) {
    const Gate& gt = net.gate(g);
    std::string s =
        gt.name.empty() ? "g" + std::to_string(g.value()) : gt.name;
    s += "(";
    s += gate_kind_name(gt.kind);
    s += ")";
    return s;
  };
  const char* sa = f.stuck ? "/SA1" : "/SA0";
  if (f.site == Fault::Site::kStem) return label(f.gate) + sa;
  const Conn& c = net.conn(f.conn);
  return "conn " + label(c.from) + "->" + label(c.to) + sa;
}

std::vector<Fault> enumerate_faults(const Network& net) {
  std::vector<Fault> out;
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    if (!is_fault_site(net, g)) continue;
    for (bool v : {false, true})
      out.push_back(Fault{Fault::Site::kStem, g, ConnId::invalid(), v});
  }
  for (std::uint32_t i = 0; i < net.conn_capacity(); ++i) {
    const ConnId c{i};
    const Conn& cn = net.conn(c);
    if (cn.dead) continue;
    if (!is_fault_site(net, cn.from)) continue;
    if (net.gate(cn.from).fanouts.size() <= 1) continue;  // branch == stem
    for (bool v : {false, true})
      out.push_back(Fault{Fault::Site::kBranch, GateId::invalid(), c, v});
  }
  return out;
}

std::vector<Fault> collapsed_faults(const Network& net) {
  UnionFind uf = equivalences(net);
  std::vector<char> taken(uf.size(), 0);
  std::vector<Fault> out;
  for (const Fault& f : enumerate_faults(net)) {
    const std::size_t root = uf.find(fault_key(net, f));
    if (taken[root]) continue;
    taken[root] = 1;
    out.push_back(f);
  }
  return out;
}

std::vector<std::vector<Fault>> fault_classes(const Network& net) {
  UnionFind uf = equivalences(net);
  std::map<std::size_t, std::vector<Fault>> by_root;
  for (const Fault& f : enumerate_faults(net))
    by_root[uf.find(fault_key(net, f))].push_back(f);
  std::vector<std::vector<Fault>> classes;
  classes.reserve(by_root.size());
  for (auto& [root, members] : by_root) classes.push_back(std::move(members));
  std::stable_sort(classes.begin(), classes.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  return classes;
}

}  // namespace kms
