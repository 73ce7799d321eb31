#include "src/netlist/blif.hpp"

#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/base/strings.hpp"

namespace kms {
namespace {

// ---- reader ---------------------------------------------------------------

/// "line 12: " — prefix for parse diagnostics; kmslint greps for it.
std::string at_line(int line) { return str_format("line %d: ", line); }

/// A cube line together with the physical line it came from.
struct Cube {
  int line = 0;
  std::string text;  // "pattern phase"
};

struct NamesNode {
  int line = 0;  ///< physical line of the .names directive
  std::vector<std::string> inputs;
  std::string output;
  std::vector<Cube> cubes;
};

struct LatchDecl {
  int line = 0;
  std::string input;   // data (next-state) signal
  std::string output;  // state signal
  bool init = false;
};

struct BlifModel {
  std::string name;
  int inputs_line = 0;   ///< first .inputs directive
  int outputs_line = 0;  ///< first .outputs directive
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<NamesNode> nodes;
  std::vector<LatchDecl> latches;
};

/// A logical line tagged with the 1-based physical line it started on.
struct SourceLine {
  int line = 0;
  std::string text;
};

/// Read logical lines: strips comments, joins '\' continuations.
std::vector<SourceLine> logical_lines(std::istream& in) {
  std::vector<SourceLine> lines;
  std::string raw, acc;
  int lineno = 0, start = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    if (auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    std::string_view t = trim(raw);
    bool cont = false;
    if (!t.empty() && t.back() == '\\') {
      cont = true;
      t.remove_suffix(1);
    }
    if (acc.empty()) start = lineno;
    acc += std::string(t);
    if (cont) {
      acc += ' ';
      continue;
    }
    if (!trim(acc).empty()) lines.push_back({start, std::string(trim(acc))});
    acc.clear();
  }
  if (!trim(acc).empty()) lines.push_back({start, std::string(trim(acc))});
  return lines;
}

BlifModel parse_model(std::istream& in) {
  BlifModel model;
  NamesNode* current = nullptr;
  for (const SourceLine& src : logical_lines(in)) {
    const std::string& line = src.text;
    auto tok = split_ws(line);
    if (tok.empty()) continue;
    const std::string& cmd = tok[0];
    if (cmd[0] == '.') {
      current = nullptr;
      if (cmd == ".model") {
        if (tok.size() > 1) model.name = tok[1];
      } else if (cmd == ".inputs") {
        if (model.inputs_line == 0) model.inputs_line = src.line;
        model.inputs.insert(model.inputs.end(), tok.begin() + 1, tok.end());
      } else if (cmd == ".outputs") {
        if (model.outputs_line == 0) model.outputs_line = src.line;
        model.outputs.insert(model.outputs.end(), tok.begin() + 1, tok.end());
      } else if (cmd == ".names") {
        if (tok.size() < 2)
          throw BlifError(at_line(src.line) + ".names with no signals");
        NamesNode node;
        node.line = src.line;
        node.inputs.assign(tok.begin() + 1, tok.end() - 1);
        node.output = tok.back();
        model.nodes.push_back(std::move(node));
        current = &model.nodes.back();
      } else if (cmd == ".end") {
        break;
      } else if (cmd == ".latch") {
        // .latch <input> <output> [<type> <control>] [<init-val>]
        if (tok.size() < 3)
          throw BlifError(at_line(src.line) + "malformed .latch");
        LatchDecl latch;
        latch.line = src.line;
        latch.input = tok[1];
        latch.output = tok[2];
        const std::string& last = tok.back();
        if (tok.size() > 3 && last.size() == 1 &&
            (last[0] >= '0' && last[0] <= '3'))
          latch.init = last == "1";
        model.latches.push_back(std::move(latch));
      } else if (cmd == ".subckt" || cmd == ".gate") {
        throw BlifError(at_line(src.line) +
                        "unsupported BLIF construct: " + cmd);
      } else {
        // Ignore unknown directives (.default_input_arrival etc.).
      }
    } else {
      if (current == nullptr)
        throw BlifError(at_line(src.line) +
                        "cover line outside .names: " + line);
      current->cubes.push_back({src.line, line});
    }
  }
  if (model.outputs.empty()) throw BlifError("model has no outputs");
  return model;
}

/// Delay of every gate a cover elaborates into: the paper's experiments
/// use a unit gate-delay model.
constexpr double kGateDelay = 1.0;

/// Builds gates for one cover. Returns the gate driving the node output.
class Elaborator {
 public:
  explicit Elaborator(Network& net) : net_(net) {}

  GateId literal(GateId src, bool positive) {
    if (positive) return src;
    auto it = inverters_.find(src.value());
    if (it != inverters_.end()) return it->second;
    GateId inv = net_.add_gate(GateKind::kNot, {src}, kGateDelay);
    inverters_.emplace(src.value(), inv);
    return inv;
  }

  GateId cover(const NamesNode& node, const std::vector<GateId>& fanins) {
    // Split "pattern phase" lines; validate a consistent output phase.
    std::vector<Cube> patterns;
    int phase = -1;
    for (const Cube& cube : node.cubes) {
      auto tok = split_ws(cube.text);
      std::string pattern, out;
      if (node.inputs.empty()) {
        if (tok.size() != 1)
          throw BlifError(at_line(cube.line) +
                          "bad constant cover: " + cube.text);
        out = tok[0];
      } else {
        if (tok.size() != 2)
          throw BlifError(at_line(cube.line) + "bad cover line: " + cube.text);
        pattern = tok[0];
        out = tok[1];
        if (pattern.size() != node.inputs.size())
          throw BlifError(at_line(cube.line) +
                          "cover width mismatch: " + cube.text);
      }
      if (out != "0" && out != "1")
        throw BlifError(at_line(cube.line) + "bad output phase: " + cube.text);
      const int p = out == "1" ? 1 : 0;
      if (phase != -1 && phase != p)
        throw BlifError(at_line(cube.line) +
                        "mixed output phases in one cover");
      phase = p;
      patterns.push_back({cube.line, pattern});
    }
    if (patterns.empty()) return net_.const_gate(false);
    if (node.inputs.empty())
      return net_.const_gate(phase == 1);

    std::vector<GateId> terms;
    for (const Cube& cube : patterns) {
      const std::string& p = cube.text;
      std::vector<GateId> lits;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] == '-') continue;
        if (p[i] != '0' && p[i] != '1')
          throw BlifError(at_line(cube.line) +
                          "bad input literal in cover: " + p);
        lits.push_back(literal(fanins[i], p[i] == '1'));
      }
      if (lits.empty()) {
        // A cube of all don't-cares covers everything: constant function.
        return net_.const_gate(phase == 1);
      }
      terms.push_back(lits.size() == 1
                          ? lits[0]
                          : net_.add_gate(GateKind::kAnd, lits, kGateDelay));
    }
    if (terms.size() == 1) {
      if (phase == 1) {
        // Single positive term; if it is a raw fanin, buffer it so the
        // node has a gate of its own (keeps names attachable).
        return terms[0];
      }
      return net_.add_gate(GateKind::kNot, {terms[0]}, kGateDelay);
    }
    return net_.add_gate(phase == 1 ? GateKind::kOr : GateKind::kNor, terms,
                         kGateDelay);
  }

 private:
  Network& net_;
  std::unordered_map<std::uint32_t, GateId> inverters_;
};

}  // namespace

namespace {

Network elaborate_model(const BlifModel& model) {
  Network net(model.name.empty() ? "blif" : model.name);
  Elaborator elab(net);

  std::unordered_map<std::string, GateId> signal;
  for (const std::string& i : model.inputs) {
    if (signal.count(i))
      throw BlifError(at_line(model.inputs_line) + "duplicate input: " + i);
    signal.emplace(i, net.add_input(i));
  }
  // Latch outputs are state signals: inputs of the combinational core.
  for (const LatchDecl& latch : model.latches) {
    if (signal.count(latch.output))
      throw BlifError(at_line(latch.line) +
                      "latch output redefines a signal: " + latch.output);
    signal.emplace(latch.output, net.add_input(latch.output));
  }

  // Elaborate nodes in dependency order (BLIF allows any order on disk).
  std::vector<bool> done(model.nodes.size(), false);
  std::unordered_map<std::string, std::size_t> by_output;
  for (std::size_t i = 0; i < model.nodes.size(); ++i) {
    if (!by_output.emplace(model.nodes[i].output, i).second)
      throw BlifError(at_line(model.nodes[i].line) +
                      "signal defined twice: " + model.nodes[i].output);
    if (signal.count(model.nodes[i].output))
      throw BlifError(at_line(model.nodes[i].line) +
                      "node redefines an input: " + model.nodes[i].output);
  }
  // Iterative DFS elaboration.
  std::vector<std::size_t> stack;
  std::vector<bool> on_stack(model.nodes.size(), false);
  for (std::size_t root = 0; root < model.nodes.size(); ++root) {
    if (done[root]) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      if (done[n]) {
        stack.pop_back();
        continue;
      }
      on_stack[n] = true;
      bool ready = true;
      for (const std::string& in_name : model.nodes[n].inputs) {
        if (signal.count(in_name)) continue;
        auto it = by_output.find(in_name);
        if (it == by_output.end())
          throw BlifError(at_line(model.nodes[n].line) +
                          "undefined signal: " + in_name);
        if (!done[it->second]) {
          if (on_stack[it->second])
            throw BlifError(at_line(model.nodes[n].line) +
                            "combinational cycle through: " + in_name);
          stack.push_back(it->second);
          ready = false;
        }
      }
      if (!ready) continue;
      std::vector<GateId> fanins;
      for (const std::string& in_name : model.nodes[n].inputs)
        fanins.push_back(signal.at(in_name));
      GateId g = elab.cover(model.nodes[n], fanins);
      if (net.gate(g).name.empty() && is_logic(net.gate(g).kind) &&
          !is_constant(net.gate(g).kind))
        net.gate(g).name = model.nodes[n].output;
      signal.emplace(model.nodes[n].output, g);
      done[n] = true;
      on_stack[n] = false;
      stack.pop_back();
    }
  }

  for (const std::string& o : model.outputs) {
    auto it = signal.find(o);
    if (it == signal.end())
      throw BlifError(at_line(model.outputs_line) + "undefined output: " + o);
    net.add_output(o, it->second);
  }
  // Latch data pins are next-state functions: outputs of the core.
  for (const LatchDecl& latch : model.latches) {
    auto it = signal.find(latch.input);
    if (it == signal.end())
      throw BlifError(at_line(latch.line) +
                      "undefined latch input: " + latch.input);
    net.add_output(latch.input, it->second);
  }
  return net;
}

}  // namespace

Network read_blif(std::istream& in) {
  BlifModel model = parse_model(in);
  if (!model.latches.empty())
    throw BlifError(at_line(model.latches.front().line) +
                    "model contains latches; use read_blif_sequential "
                    "instead");
  return elaborate_model(model);
}

BlifSequential read_blif_sequential(std::istream& in) {
  BlifModel model = parse_model(in);
  BlifSequential seq;
  seq.comb = elaborate_model(model);
  for (const LatchDecl& latch : model.latches)
    seq.latch_init.push_back(latch.init);
  return seq;
}

BlifSequential read_blif_sequential_string(const std::string& text) {
  std::istringstream in(text);
  return read_blif_sequential(in);
}

Network read_blif_string(const std::string& text) {
  std::istringstream in(text);
  return read_blif(in);
}

Network read_blif_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BlifError("cannot open " + path);
  return read_blif(in);
}

// ---- writer -----------------------------------------------------------------

namespace {

void write_parity_cover(std::ostream& out, std::size_t n, bool odd) {
  if (n > 12) throw BlifError("XOR fanin too wide for BLIF cover; decompose");
  for (std::uint32_t v = 0; v < (1u << n); ++v) {
    if ((static_cast<std::uint32_t>(__builtin_popcount(v)) % 2 == 1) != odd)
      continue;
    std::string pattern(n, '0');
    for (std::size_t i = 0; i < n; ++i)
      if (v & (1u << i)) pattern[i] = '1';
    out << pattern << " 1\n";
  }
}

}  // namespace

namespace {

void write_blif_impl(const Network& net, std::size_t num_latches,
                     const std::vector<bool>& latch_init, std::ostream& out) {
  // Unique signal names: PIs and POs keep theirs; internal gates get n<id>.
  std::unordered_map<std::uint32_t, std::string> names;
  std::unordered_set<std::string> used;
  auto claim = [&used](std::string base) {
    std::string name = base;
    int k = 0;
    while (!used.insert(name).second) name = base + "_" + std::to_string(++k);
    return name;
  };
  std::size_t pi_idx = 0;
  for (GateId g : net.inputs()) {
    const std::string& n = net.gate(g).name;
    names[g.value()] =
        claim(n.empty() ? "pi" + std::to_string(pi_idx) : n);
    ++pi_idx;
  }
  std::size_t po_idx = 0;
  std::vector<std::string> po_names;
  for (GateId g : net.outputs()) {
    const std::string& n = net.gate(g).name;
    po_names.push_back(claim(n.empty() ? "po" + std::to_string(po_idx) : n));
    names[g.value()] = po_names.back();
    ++po_idx;
  }
  const auto order = net.topo_order();
  for (GateId g : order) {
    const Gate& gt = net.gate(g);
    if (gt.dead || !is_logic(gt.kind)) continue;
    names[g.value()] = claim("n" + std::to_string(g.value()));
  }

  const std::size_t n_pi = net.inputs().size() - num_latches;
  const std::size_t n_po = net.outputs().size() - num_latches;
  out << ".model " << (net.name().empty() ? "kms" : net.name()) << "\n";
  out << ".inputs";
  for (std::size_t i = 0; i < n_pi; ++i)
    out << " " << names.at(net.inputs()[i].value());
  out << "\n.outputs";
  for (std::size_t i = 0; i < n_po; ++i) out << " " << po_names[i];
  out << "\n";
  for (std::size_t l = 0; l < num_latches; ++l) {
    out << ".latch " << po_names[n_po + l] << " "
        << names.at(net.inputs()[n_pi + l].value()) << " "
        << (latch_init[l] ? 1 : 0) << "\n";
  }

  for (GateId g : order) {
    const Gate& gt = net.gate(g);
    if (gt.dead || !is_logic(gt.kind)) continue;
    out << ".names";
    for (ConnId c : gt.fanins) out << " " << names.at(net.conn(c).from.value());
    out << " " << names.at(g.value()) << "\n";
    const std::size_t n = gt.fanins.size();
    switch (gt.kind) {
      case GateKind::kConst0:
        break;  // empty cover = constant 0
      case GateKind::kConst1:
        out << "1\n";
        break;
      case GateKind::kBuf:
        out << "1 1\n";
        break;
      case GateKind::kNot:
        out << "0 1\n";
        break;
      case GateKind::kAnd:
        out << std::string(n, '1') << " 1\n";
        break;
      case GateKind::kNor:
        out << std::string(n, '0') << " 1\n";
        break;
      case GateKind::kNand:
        for (std::size_t i = 0; i < n; ++i) {
          std::string p(n, '-');
          p[i] = '0';
          out << p << " 1\n";
        }
        break;
      case GateKind::kOr:
        for (std::size_t i = 0; i < n; ++i) {
          std::string p(n, '-');
          p[i] = '1';
          out << p << " 1\n";
        }
        break;
      case GateKind::kXor:
        write_parity_cover(out, n, /*odd=*/true);
        break;
      case GateKind::kXnor:
        write_parity_cover(out, n, /*odd=*/false);
        break;
      case GateKind::kMux:
        out << "11- 1\n0-1 1\n";
        break;
      default:
        break;
    }
  }
  // Output markers as buffers of their drivers.
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    GateId o = net.outputs()[i];
    const Conn& c = net.conn(net.gate(o).fanins[0]);
    out << ".names " << names.at(c.from.value()) << " " << po_names[i]
        << "\n1 1\n";
  }
  out << ".end\n";
}

}  // namespace

void write_blif(const Network& net, std::ostream& out) {
  write_blif_impl(net, 0, {}, out);
}

void write_blif_sequential(const Network& comb, std::size_t num_latches,
                           const std::vector<bool>& latch_init,
                           std::ostream& out) {
  write_blif_impl(comb, num_latches, latch_init, out);
}

std::string write_blif_string(const Network& net) {
  std::ostringstream out;
  write_blif(net, out);
  return out.str();
}

void write_blif_file(const Network& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw BlifError("cannot open " + path);
  write_blif(net, out);
}

}  // namespace kms
