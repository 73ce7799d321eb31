// Oracles for the KMS loop's path-scoped work, on every loop iteration of
// carry-skip adders and a replicated datapath, plus the shared random
// network corpus:
//
//  * the path-scoped Sensitizer returns the whole-network encoding's
//    verdict in both modes, from a formula no larger, and its
//    certificates check (also on the first paths of every corpus
//    network);
//  * one Sensitizer retargeted per path answers as a fresh path-scoped
//    one: verdict, witness, formula size and certificate bytes;
//  * worklist constant propagation, buffer collapsing and the order-free
//    sweep produce the write_blif bytes of the whole-network topological
//    sweeps in tests/reference_surgery.hpp, and the network records the
//    same edits for both;
//  * IncrementalSta tables repaired over the maintained topological key
//    stay bit-identical to a from-scratch build;
//  * computed_delay with model reuse reports the delay, witness path and
//    query count of a search that solves every query afresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/checker.hpp"
#include "src/proof/drat.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "tests/reference_surgery.hpp"
#include "tests/test_networks.hpp"

namespace kms {
namespace {

constexpr SensitizationMode kModes[] = {SensitizationMode::kStatic,
                                        SensitizationMode::kViability};

std::vector<std::pair<std::string, Network>> loop_circuits() {
  std::vector<std::pair<std::string, Network>> out;
  out.emplace_back("csa_4_2", carry_skip_adder(4, 2));
  out.emplace_back("csa_6_3", carry_skip_adder(6, 3));
  out.emplace_back("csa_8_4", carry_skip_adder(8, 4));
  out.emplace_back("csa_8_2", carry_skip_adder(8, 2));
  out.emplace_back("csa_4_2_x3", replicate_blocks(carry_skip_adder(4, 2), 3));
  for (auto& [name, net] : out) decompose_to_simple(net);
  return out;
}

/// Walk the loop as kms_make_irredundant does in `mode` (longest path,
/// stop unless it is proved unsensitizable, else transform it), calling
/// `visit(net, path, iteration)` before each verdict. Returns the number
/// of transforms.
std::size_t walk_loop(
    Network& net, SensitizationMode mode,
    const std::function<void(const Network&, const Path&, std::size_t)>&
        visit,
    const std::function<void(const Network&, const TransformTrace&)>& after =
        nullptr) {
  for (std::size_t it = 0;; ++it) {
    PathEnumerator en(net);
    const std::optional<Path> path = en.next();
    if (!path) return it;
    visit(net, *path, it);
    Sensitizer whole(net, mode);
    if (whole.check(*path).verdict != sat::Result::kUnsat) return it;
    TransformTrace trace;
    {
      const TraceScope tracing(net, trace);
      kms_replay_loop_transform(net);
    }
    if (after) after(net, trace);
  }
}

TEST(LoopOracleTest, ScopedVerdictsMatchWholeNetwork) {
  for (const SensitizationMode mode : kModes) {
    for (const auto& [name, original] : loop_circuits()) {
      Network net = original;
      std::size_t unsat = 0;
      const std::size_t iterations = walk_loop(
          net, mode, [&](const Network& n, const Path& path, std::size_t it) {
            const std::string ctx = name + " iteration " + std::to_string(it);
            Sensitizer whole(n, mode);
            Sensitizer scoped(n, mode, path, nullptr, nullptr,
                              /*capture=*/true);
            const SensitizeResult want = whole.check(path);
            const SensitizeResult got = scoped.check(path);
            ASSERT_EQ(got.verdict, want.verdict) << ctx;
            EXPECT_LE(scoped.encoded_gates(), whole.encoded_gates()) << ctx;
            if (got.verdict != sat::Result::kUnsat) return;
            ++unsat;
            ASSERT_TRUE(got.certificate) << ctx;
            const proof::DratCheckResult r =
                proof::check_drat(*got.certificate);
            EXPECT_TRUE(r) << ctx << ": " << r.error;
          });
      EXPECT_EQ(unsat, iterations) << name;
      // The walk is the loop: same transforms as the engine.
      Network engine = original;
      KmsOptions opts;
      opts.mode = mode;
      opts.remove_remaining = false;
      EXPECT_EQ(kms_make_irredundant(engine, opts).iterations, iterations)
          << name;
      EXPECT_EQ(write_blif_string(engine), write_blif_string(net)) << name;
    }
  }
}

TEST(LoopOracleTest, ScopedVerdictsMatchWholeNetworkOnRandomNetworks) {
  // The shared corpus reaches what the adders do not: side inputs fed by
  // XOR, XNOR and MUX gates and multi-input gates, tombstones from
  // removal edits. The first paths of each network, both modes; a MUX on
  // the path itself is rejected by both constructors.
  std::size_t checked = 0, unsat = 0, rejected = 0;
  for (const Network& net : test_networks()) {
    for (const SensitizationMode mode : kModes) {
      PathEnumerator en(net);
      for (int k = 0; k < 6; ++k) {
        const std::optional<Path> path = en.next();
        if (!path) break;
        const std::string ctx = net.name() + " path " + std::to_string(k);
        Sensitizer whole(net, mode);
        std::optional<Sensitizer> scoped;
        try {
          scoped.emplace(net, mode, *path, nullptr, nullptr,
                         /*capture=*/true);
        } catch (const std::invalid_argument&) {
          EXPECT_THROW(whole.check(*path), std::invalid_argument) << ctx;
          ++rejected;
          continue;
        }
        const SensitizeResult want = whole.check(*path);
        const SensitizeResult got = scoped->check(*path);
        ASSERT_EQ(got.verdict, want.verdict) << ctx;
        EXPECT_LE(scoped->encoded_gates(), whole.encoded_gates()) << ctx;
        ++checked;
        if (got.verdict != sat::Result::kUnsat) continue;
        ++unsat;
        ASSERT_TRUE(got.certificate) << ctx;
        const proof::DratCheckResult r = proof::check_drat(*got.certificate);
        EXPECT_TRUE(r) << ctx << ": " << r.error;
      }
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(unsat, 0u);
  EXPECT_GT(rejected, 0u);
}

std::string certificate_bytes(const SensitizeResult& r) {
  if (!r.certificate) return "";
  std::ostringstream bytes;
  proof::write_cnf(*r.certificate, bytes);
  proof::write_drat(*r.certificate, bytes);
  return bytes.str();
}

/// Check `path` on both; returns the verdict of `got`.
sat::Result expect_same_answer(Sensitizer& got, Sensitizer& want,
                               const Path& path, const std::string& ctx) {
  const SensitizeResult a = got.check(path);
  const SensitizeResult b = want.check(path);
  EXPECT_EQ(a.verdict, b.verdict) << ctx;
  EXPECT_EQ(a.witness, b.witness) << ctx;
  EXPECT_EQ(got.encoded_gates(), want.encoded_gates()) << ctx;
  EXPECT_EQ(got.queries(), want.queries()) << ctx;
  EXPECT_EQ(certificate_bytes(a), certificate_bytes(b)) << ctx;
  return a.verdict;
}

TEST(LoopOracleTest, RetargetedSensitizerMatchesFresh) {
  // The loop keeps one Sensitizer and retargets it per path. Here it
  // starts as a whole-network sensitizer of the input, so even the
  // first iteration is a retarget over used solver storage.
  for (const SensitizationMode mode : kModes) {
    for (const auto& [name, original] : loop_circuits()) {
      Network net = original;
      Sensitizer reused(net, mode, nullptr, nullptr,
                        /*capture=*/true);
      std::size_t unsat = 0;
      walk_loop(net, mode,
                [&, &name = name](const Network& n, const Path& path,
                                  std::size_t it) {
                  reused.retarget(path);
                  Sensitizer fresh(n, mode, path, nullptr, nullptr,
                                   /*capture=*/true);
                  const std::string ctx =
                      name + " iteration " + std::to_string(it);
                  unsat += expect_same_answer(reused, fresh, path, ctx) ==
                           sat::Result::kUnsat;
                });
      EXPECT_GT(unsat, 0u) << name;
    }
  }
}

TEST(LoopOracleTest, RetargetedSensitizerMatchesFreshOnRandomNetworks) {
  // Corpus paths in sequence on one Sensitizer per network and mode. A
  // path with a MUX on it throws, and must leave the previous target
  // answering as before.
  std::size_t checked = 0, rejected = 0;
  for (const Network& net : test_networks()) {
    for (const SensitizationMode mode : kModes) {
      Sensitizer reused(net, mode, nullptr, nullptr,
                        /*capture=*/true);
      std::optional<Path> previous;
      PathEnumerator en(net);
      for (int k = 0; k < 6; ++k) {
        const std::optional<Path> path = en.next();
        if (!path) break;
        const std::string ctx = net.name() + " path " + std::to_string(k);
        try {
          reused.retarget(*path);
        } catch (const std::invalid_argument&) {
          ++rejected;
          if (!previous) continue;
          Sensitizer fresh(net, mode, *previous, nullptr, nullptr,
                           /*capture=*/true);
          fresh.check(*previous);  // one query already asked of reused
          expect_same_answer(reused, fresh, *previous, ctx + " (kept)");
          continue;
        }
        Sensitizer fresh(net, mode, *path, nullptr, nullptr,
                         /*capture=*/true);
        expect_same_answer(reused, fresh, *path, ctx);
        previous = path;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(rejected, 0u);
}

/// Sorted, de-duplicated copy of a trace: the production passes visit
/// gates in a different order, possibly more than once, but make the
/// same edits, so the network records the same touched gates and
/// severed edges.
TransformTrace canonical(TransformTrace t) {
  std::sort(t.touched.begin(), t.touched.end());
  t.touched.erase(std::unique(t.touched.begin(), t.touched.end()),
                  t.touched.end());
  std::sort(t.severed.begin(), t.severed.end());
  t.severed.erase(std::unique(t.severed.begin(), t.severed.end()),
                  t.severed.end());
  return t;
}

TEST(LoopOracleTest, WorklistSurgeryMatchesTopologicalSweep) {
  for (auto& [name, net] : loop_circuits()) {
    Network reference = net;
    std::size_t iterations = walk_loop(
        net, SensitizationMode::kStatic,
        [](const Network&, const Path&, std::size_t) {},
        [&, &name = name](const Network& n, const TransformTrace& got) {
          TransformTrace want;
          {
            const TraceScope tracing(reference, want);
            ASSERT_TRUE(reference_loop_transform(reference));
          }
          ASSERT_EQ(write_blif_string(n), write_blif_string(reference))
              << name;
          const TransformTrace a = canonical(got);
          const TransformTrace b = canonical(want);
          EXPECT_EQ(a.touched, b.touched) << name;
          EXPECT_EQ(a.severed, b.severed) << name;
        });
    EXPECT_GT(iterations, 0u) << name;
  }
}

TEST(LoopOracleTest, ConstantPropagationMatchesSweepOnRandomNetworks) {
  std::size_t cases = 0;
  for (const Network& base : test_networks()) {
    // Assert several connections constant at once (both values), then
    // tidy up exactly as the loop and the removal phase do.
    const std::uint32_t conns = base.conn_capacity();
    for (std::uint32_t stride : {3u, 5u, 7u}) {
      Network got = base;
      Network want = base;
      bool value = stride % 2 == 1;
      for (std::uint32_t c = stride; c < conns; c += stride * 4) {
        const Conn& cn = base.conn(ConnId{c});
        if (cn.dead || base.gate(cn.to).kind == GateKind::kOutput) continue;
        got.set_conn_constant(ConnId{c}, value);
        want.set_conn_constant(ConnId{c}, value);
        value = !value;
      }
      TransformTrace got_trace, want_trace;
      const TraceScope got_tracing(got, got_trace);
      const TraceScope want_tracing(want, want_trace);
      EXPECT_EQ(propagate_constants(got) > 0,
                reference_propagate_constants(want) > 0);
      const std::string ctx = base.name() + " stride " + std::to_string(stride);
      ASSERT_EQ(write_blif_string(got), write_blif_string(want)) << ctx;
      EXPECT_EQ(collapse_buffers(got), reference_collapse_buffers(want))
          << ctx;
      EXPECT_EQ(got.sweep(), reference_sweep(want)) << ctx;
      ASSERT_EQ(got.check(), "") << ctx;
      EXPECT_EQ(write_blif_string(got), write_blif_string(want)) << ctx;
      const TransformTrace a = canonical(got_trace);
      const TransformTrace b = canonical(want_trace);
      EXPECT_EQ(a.touched, b.touched) << ctx;
      EXPECT_EQ(a.severed, b.severed) << ctx;
      ++cases;
    }
  }
  EXPECT_GT(cases, 50u);
}

/// Independent MUXes over their own data inputs, sharing one select
/// source and each feeding an output. Gate ids follow creation order,
/// while topo_order() pops the last-created input first, so the sweep
/// meets the MUXes in the opposite order of their ids.
Network mux_bank(std::size_t muxes) {
  Network net("mux_bank");
  const GateId sel = net.add_input("s");
  std::vector<GateId> data;
  for (std::size_t i = 0; i < 2 * muxes; ++i)
    data.push_back(net.add_input("d" + std::to_string(i)));
  for (std::size_t i = 0; i < muxes; ++i) {
    const GateId m = net.add_gate(GateKind::kMux,
                                  {sel, data[2 * i], data[2 * i + 1]}, 1.0);
    net.add_output("y" + std::to_string(i), m);
  }
  return net;
}

TEST(LoopOracleTest, MuxRoundsMatchSweepIdsAndOrders) {
  // Constants reaching MUXes: their simplification creates gates and
  // connections, so with several in one call the order shows in the new
  // gates' ids and the fanout lists; a select that picks a constant data
  // input leaves a buffer of a constant for a second round. Compared
  // after propagate_constants alone and after simplify's fixpoint, on a
  // MUX bank and on undecomposed carry-skip adders (skip MUXes).
  Rng rng(7);
  std::size_t cases = 0;
  std::vector<Network> bases = {mux_bank(4), carry_skip_adder(4, 2),
                                carry_skip_adder(8, 2), carry_skip_adder(8, 4)};
  for (const Network& base : bases) {
    std::vector<ConnId> pins;
    for (std::uint32_t c = 0; c < base.conn_capacity(); ++c)
      if (base.gate(base.conn(ConnId{c}).to).kind != GateKind::kOutput)
        pins.push_back(ConnId{c});
    for (int trial = 0; trial < 60; ++trial) {
      Network got = base;
      Network want = base;
      const std::size_t count = 1 + rng.next_u64() % 4;
      for (std::size_t k = 0; k < count; ++k) {
        const ConnId c = pins[rng.next_u64() % pins.size()];
        if (is_constant(got.gate(got.conn(c).from).kind)) continue;
        const bool value = rng.next_u64() % 2 == 1;
        got.set_conn_constant(c, value);
        want.set_conn_constant(c, value);
      }
      const std::string ctx = base.name() + " trial " + std::to_string(trial);
      propagate_constants(got);
      reference_propagate_constants(want);
      ASSERT_EQ(write_blif_string(got), write_blif_string(want)) << ctx;
      simplify(got);
      for (;;) {
        std::size_t work = reference_propagate_constants(want);
        work += reference_collapse_buffers(want);
        work += reference_sweep(want);
        if (work == 0) break;
      }
      ASSERT_EQ(write_blif_string(got), write_blif_string(want)) << ctx;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 240u);
}

TEST(LoopOracleTest, RepairedOrderKeyTablesMatchRebuild) {
  for (auto& [name, net] : loop_circuits()) {
    IncrementalSta sta(net);
    const std::size_t iterations = walk_loop(
        net, SensitizationMode::kStatic,
        [](const Network&, const Path&, std::size_t) {},
        [&, &name = name](const Network& n, const TransformTrace& trace) {
          sta.apply(trace);
          const IncrementalSta fresh(n);
          ASSERT_EQ(sta.delay(), fresh.delay()) << name;
          ASSERT_EQ(sta.arrival(), fresh.arrival()) << name;
          ASSERT_EQ(sta.suffix(), fresh.suffix()) << name;
          EXPECT_NO_THROW(enforce_timing_invariants(n, sta, "oracle")) << name;
        });
    EXPECT_EQ(sta.stats().applies, iterations) << name;
  }
}

TEST(LoopOracleTest, RepairedKeyFollowsEdgesAgainstTheOrder) {
  // Connections from the end of a long chain into the head of another
  // cone run against the key: each sink and its fanout cone must rise
  // above the chain, whether the edit is a new connection (found from
  // the watermark) or a reroute, whose record touches the sink.
  Network net("against");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  GateId chain = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  for (int i = 0; i < 6; ++i)
    chain = net.add_gate(GateKind::kAnd, {chain, b}, 1.0);
  net.add_output("y", chain);
  const auto cone = [&](const std::string& name) {
    const GateId head = net.add_gate(GateKind::kOr, {a, b}, 1.0);
    const GateId mid = net.add_gate(GateKind::kAnd, {head, a}, 2.0);
    net.add_output(name, net.add_gate(GateKind::kNot, {mid}, 1.0));
    return head;
  };
  const GateId h1 = cone("z1");
  const GateId h2 = cone("z2");
  const GateId h3 = cone("z3");
  IncrementalSta sta(net);

  net.connect(chain, h1);
  sta.apply(TransformTrace{});
  EXPECT_NO_THROW(enforce_timing_invariants(net, sta, "new connection"));

  for (const auto& [head, pin] : {std::pair{h2, 0}, std::pair{h3, 1}}) {
    TransformTrace trace;
    {
      const TraceScope tracing(net, trace);
      net.reroute_source(net.gate(head).fanins[pin], chain);
    }
    sta.apply(trace);
    EXPECT_NO_THROW(enforce_timing_invariants(net, sta, "reroute"));
  }
  EXPECT_EQ(sta.delay(), IncrementalSta(net).delay());
}

TEST(LoopOracleTest, ModelReuseMatchesFreshSolves) {
  for (const SensitizationMode mode : kModes) {
    for (auto& [name, net] : loop_circuits()) {
      walk_loop(net, mode,
                [&, &name = name](const Network& n, const Path&,
                                  std::size_t it) {
                  // csa_8_2's 192 iterations: every eighth keeps the
                  // test quick under the sanitizers.
                  if (name == "csa_8_2" && it % 8 != 0) return;
                  const std::string ctx =
                      name + " iteration " + std::to_string(it);
                  const DelayReport got = computed_delay(n, mode);
                  const DelayReport want = reference_computed_delay(n, mode);
                  ASSERT_TRUE(got.exact) << ctx;
                  EXPECT_EQ(got.delay, want.delay) << ctx;
                  EXPECT_EQ(got.paths_examined, want.paths_examined) << ctx;
                  ASSERT_EQ(got.witness.has_value(), want.witness.has_value())
                      << ctx;
                  if (got.witness) {
                    EXPECT_EQ(*got.witness, *want.witness) << ctx;
                  }
                });
    }
  }
}

}  // namespace
}  // namespace kms
