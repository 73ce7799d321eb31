// Byte pins for the analysis output: the FNV-1a digest of
// run_analysis's text and JSON report and of run_analysis_rules's JSON
// findings, per network. The values were recorded from the build
// before the analysis layer moved onto the ATPG layer's fault model
// (fault sites, equivalence classes, labels); any change to a report
// byte, a finding or the order of findings shows here.
//
// Networks: the example BLIFs, the shared test corpus (random networks,
// examples, decomposed and removal-edited copies), and hand-built
// circuits that fire NL017, NL020 and NL021, one of them with a
// dangling gate at the end of a NOT chain. That gate is no fault site,
// yet its stem key is the smallest key of its equivalence class, so it
// decides the class's place among the equally large classes NL020
// reports.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/report.hpp"
#include "src/analysis/rules.hpp"
#include "src/check/diagnostics.hpp"
#include "src/base/strings.hpp"
#include "tests/test_networks.hpp"

namespace kms {
namespace {

/// The three outputs of one network, joined.
std::string analysis_bytes(const Network& net) {
  const analysis::AnalysisReport rep = analysis::run_analysis(net);
  std::ostringstream out;
  rep.print_text(out);
  out << "\n--\n";
  rep.print_json(out);
  out << "\n--\n";
  Diagnostics rules;
  analysis::run_analysis_rules(net, &rules);
  rules.print_json(out);
  return out.str();
}

std::uint64_t analysis_digest(const Network& net) {
  return digest_bytes(analysis_bytes(net));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

bool fires(const Network& net, const char* rule) {
  Diagnostics d;
  analysis::run_analysis_rules(net, &d);
  for (const Diagnostic& f : d.all())
    if (f.rule == rule) return true;
  return false;
}

/// y = a AND (NOT a AND NOT b): b and NOT b reach the output, but
/// every path from them is blocked (NL017); y is constant 0 (NL018).
Network nl017_circuit() {
  Network net("nl017");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId nb = net.add_gate(GateKind::kNot, {b}, 1.0, "nb");
  const GateId na = net.add_gate(GateKind::kNot, {a}, 1.0, "na");
  const GateId m = net.add_gate(GateKind::kAnd, {na, nb}, 1.0, "m");
  net.add_output("y", net.add_gate(GateKind::kAnd, {a, m}, 1.0, "y"));
  return net;
}

/// y = a OR NOT a, feeding z = y AND b: both values of stem a imply
/// y = 1 (NL021).
Network nl021_circuit() {
  Network net("nl021");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId na = net.add_gate(GateKind::kNot, {a}, 1.0, "na");
  const GateId y = net.add_gate(GateKind::kOr, {a, na}, 1.0, "y");
  net.add_output("z", net.add_gate(GateKind::kAnd, {y, b}, 1.0, "z"));
  return net;
}

/// An input followed by a chain of `length` gates of `kind`.
GateId chain(Network& net, const std::string& name, GateKind kind,
             std::size_t length) {
  GateId g = net.add_input(name);
  for (std::size_t i = 1; i <= length; ++i)
    g = net.add_gate(kind, {g}, 1.0, name + std::to_string(i));
  return g;
}

/// Two NOT chains of five, each stem class six faults large (NL020).
/// Chain c ends in a NOT gate `d` with no fanout, created first: d is
/// no fault site, but its stem keys are the smallest keys of chain c's
/// two classes, so those classes order before chain b's although
/// their first members come later.
Network dangling_chain_circuit() {
  Network net("dangling");
  const GateId a = net.add_input("a");
  const GateId d = net.add_gate(GateKind::kNot, {a}, 1.0, "d");
  net.add_output("yb", chain(net, "b", GateKind::kNot, 5));
  net.reroute_source(net.gate(d).fanins[0],
                     chain(net, "c", GateKind::kNot, 5));
  return net;
}

/// A four-input AND tree and a buffer chain: NL020 on the tree's
/// SA0 class and on both buffer-chain classes.
Network nl020_circuit() {
  Network net("nl020");
  std::vector<GateId> in;
  for (const char* n : {"a", "b", "c", "d"}) in.push_back(net.add_input(n));
  const GateId l = net.add_gate(GateKind::kAnd, {in[0], in[1]}, 1.0, "l");
  const GateId r = net.add_gate(GateKind::kAnd, {in[2], in[3]}, 1.0, "r");
  net.add_output("t", net.add_gate(GateKind::kAnd, {l, r}, 1.0, "t"));
  net.add_output("u", chain(net, "e", GateKind::kBuf, 6));
  return net;
}

TEST(AnalysisOutputTest, HandBuiltCircuitsFireTheirRules) {
  EXPECT_TRUE(fires(nl017_circuit(), "NL017"));
  EXPECT_TRUE(fires(nl021_circuit(), "NL021"));
  EXPECT_TRUE(fires(nl020_circuit(), "NL020"));
  EXPECT_TRUE(fires(dangling_chain_circuit(), "NL020"));
}

TEST(AnalysisOutputTest, HandBuiltAndExampleBytesArePinned) {
  struct Case {
    const char* name;
    Network net;
    std::uint64_t digest;
  };
  auto example = [](const char* file) {
    std::ifstream in(std::string(EXAMPLES_DIR) + "/" + file);
    return read_blif_sequential(in).comb;
  };
  Case cases[] = {
      {"counter2.blif", example("counter2.blif"), 0x675670fe1178d37cull},
      {"fulladder.blif", example("fulladder.blif"), 0xd8b34c8be4579fa0ull},
      {"parity4.blif", example("parity4.blif"), 0x0c975bc4832328fcull},
      {"statred.blif", example("statred.blif"), 0xade9f156b18a3712ull},
      {"nl017", nl017_circuit(), 0xb9bdbf0ba47d5258ull},
      {"nl020", nl020_circuit(), 0x886f744eb5c1372aull},
      {"nl021", nl021_circuit(), 0x241dc9c68035c0e1ull},
      {"dangling", dangling_chain_circuit(), 0x6dc5158d8c60e562ull},
  };
  for (Case& c : cases)
    EXPECT_EQ(hex(analysis_digest(c.net)), hex(c.digest))
        << c.name << ":\n" << analysis_bytes(c.net);
}

// The corpus's iteration order over the examples directory is not
// fixed, so its digests are compared as a sorted list. Eleven of the
// random networks have more findings than the cap of 100; their reports
// say "truncated".
TEST(AnalysisOutputTest, TestNetworkBytesArePinned) {
  const std::vector<std::uint64_t> pinned = {
      0x059c84d180a72790ull,
      0x0c975bc4832328fcull,
      0x0c975bc4832328fcull,
      0x0ee89a8aac66d972ull,
      0x10b00f8597270eebull,
      0x11796a74b6bc27e0ull,
      0x145d8dc5f05412c5ull,
      0x1a4984635641e4a1ull,
      0x1bbd4d599714495full,
      0x1e5f9ff3cc1fa3f4ull,
      0x2556d27b4d81b775ull,
      0x2848f714e60974dfull,
      0x29a8bc9cb780f1ddull,
      0x3e565bc2bc247516ull,
      0x45c1d759376739e8ull,
      0x4d823230b63d739eull,
      0x4e11e9f00872e5f8ull,
      0x57492e9e325ba69aull,
      0x65886a4899526e95ull,
      0x675670fe1178d37cull,
      0x675670fe1178d37cull,
      0x6b1216301cada02eull,
      0x6c9263a5889e00e3ull,
      0x6ca05cb49c029a0eull,
      0x7528e48af1101523ull,
      0x7ab7c0017711f036ull,
      0x95067d8882ab6ac9ull,
      0x9f2a4211da479b76ull,
      0xa02240f5c7227868ull,
      0xa3870c0740dd5cfbull,
      0xade9f156b18a3712ull,
      0xae12c148edbee502ull,
      0xb8130b99563c8f88ull,
      0xb8efe98cf5aeaac6ull,
      0xb9767e13fe501107ull,
      0xba7511df1ede0521ull,
      0xbcef812ee0fe9e4eull,
      0xbf9098e341478c56ull,
      0xc3eb3a120a8d4a04ull,
      0xd68b669a091a698aull,
      0xd8b34c8be4579fa0ull,
      0xd8b34c8be4579fa0ull,
      0xdde68d282560b8b3ull,
      0xde477d99ae955886ull,
      0xe6855b15bbc807c9ull,
      0xe86cce7cec0d3887ull,
      0xeac1212fa67825f8ull,
      0xead220a17a94d7f6ull,
      0xff3934fb591f7d9dull,
  };
  std::vector<std::uint64_t> got;
  for (const Network& net : test_networks())
    got.push_back(analysis_digest(net));
  std::sort(got.begin(), got.end());
  std::string listing;
  for (std::uint64_t d : got) listing += "      " + hex(d) + ",\n";
  EXPECT_EQ(got, pinned) << listing;
}

}  // namespace
}  // namespace kms
