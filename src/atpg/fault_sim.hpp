// Parallel-pattern single-fault simulation.
//
// Simulates 64 input vectors at a time against the good circuit, then
// propagates each fault event-driven from its site: only gates with a
// fanin whose faulty value differs from the good one are re-evaluated,
// level by level, and a fault whose effect dies costs nothing further.
// Used to cheaply mark detectable faults so that exact (SAT) ATPG effort
// is spent only on the hard survivors — the classic fault-sim-then-ATPG
// flow of redundancy identification tools like [22] (Schulz–Auth).
#pragma once

#include <cstdint>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/base/rng.hpp"
#include "src/netlist/network.hpp"

namespace kms {

class FaultSimulator {
 public:
  /// Flattens the network's live structure (fanins in pin order, live
  /// fanout sinks, topological levels) once. The network must not change
  /// while the simulator is in use, except right before a reset().
  explicit FaultSimulator(const Network& net);

  /// Re-flatten the network, which may have been edited since, and drop
  /// the stored sets. Afterwards the simulator behaves exactly as a
  /// freshly constructed one, but every buffer keeps its storage.
  void reset();

  /// Simulate one 64-pattern word set and return, for each fault, the
  /// mask of patterns that detect it (bit k set = pattern k detects).
  std::vector<std::uint64_t> detect_words(
      const std::vector<Fault>& faults,
      const std::vector<std::uint64_t>& pi_words);

  /// Simulate one 64-pattern word set against the good circuit and keep
  /// its values as stored set number stored_count() (the value
  /// returned). Each stored set holds gate_capacity() words.
  std::size_t store_words(const std::vector<std::uint64_t>& pi_words);
  std::size_t stored_count() const { return stored_count_; }

  /// Detection mask of `f` against stored set `w`: equal to
  /// detect_words({f}, pi_words)[0] for the pi_words that stored it.
  /// Costs only the fault's event-driven sweep, no good-circuit pass.
  std::uint64_t detect_stored(const Fault& f, std::size_t w);

  /// Fault dropping, one word at a time: simulate `pi_words` against
  /// only the faults not yet set in `detected`, and set those that a
  /// pattern in `patterns` detects. Returns the OR, over the newly
  /// detected faults, of each one's first detecting pattern (the lowest
  /// bit of its mask). Called once per word, it simulates every fault
  /// only until its first detection.
  std::uint64_t detect_new(const std::vector<Fault>& faults,
                           const std::vector<std::uint64_t>& pi_words,
                           std::vector<bool>& detected,
                           std::uint64_t patterns = ~0ull);

  /// detect_new over a test set: `tests` (full PI assignments) are
  /// packed 64 to a word, in order. Returns whether any fault was newly
  /// detected.
  bool detect_tests(const std::vector<Fault>& faults,
                    const std::vector<std::vector<bool>>& tests,
                    std::vector<bool>& detected);

 private:
  /// Load `pi_words` and evaluate the good circuit into `good`
  /// (gate_capacity() words).
  void simulate_good(const std::vector<std::uint64_t>& pi_words,
                     std::uint64_t* good);
  /// Detection mask of one fault against the good values `good`.
  std::uint64_t propagate(const Fault& f, const std::uint64_t* good);
  /// Queue `g` for re-evaluation in this fault's sweep (once).
  void schedule(std::uint32_t g);

  const Network& net_;
  // Flat structure, indexed by gate id.
  std::vector<std::uint32_t> eval_order_;  ///< live non-input gates, topo
  std::vector<GateKind> kind_;
  std::vector<std::uint32_t> fanin_begin_;  ///< CSR offsets (size cap+1)
  std::vector<std::uint32_t> fanin_src_;
  std::vector<ConnId> fanin_conn_;
  std::vector<std::uint32_t> fanout_begin_;  ///< CSR offsets (size cap+1)
  std::vector<std::uint32_t> fanout_sink_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> is_output_;
  // Per-word and per-fault scratch.
  std::vector<std::uint64_t> good_;    ///< the last detect_words/new set
  std::vector<std::uint64_t> stored_;  ///< stored sets, end to end
  std::size_t stored_count_ = 0;
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> stamp_;   ///< faulty_ validity stamp
  std::vector<std::uint32_t> queued_;  ///< scheduled-in-sweep stamp
  std::vector<std::vector<std::uint32_t>> buckets_;  ///< per level
  std::uint32_t current_stamp_ = 0;
  std::uint32_t top_level_ = 0;  ///< highest level queued this sweep
};

/// Fraction of `faults` detected by the given test set (each entry is a
/// full PI assignment). Used by the test-generation reports.
double fault_coverage(const Network& net, const std::vector<Fault>& faults,
                      const std::vector<std::vector<bool>>& tests);

/// Pack one test vector into a 64-pattern word set for detect_words:
/// pattern 0 is `vector` exactly; patterns 1–63 are random perturbations
/// of it (each input bit flipped with probability ~1/8). Used for
/// SAT-witness fault dropping — the exact witness guarantees its own
/// fault is detected, and the perturbed neighbours cheaply sweep up
/// other faults in the same region of the input space.
std::vector<std::uint64_t> witness_words(const std::vector<bool>& vector,
                                         Rng& rng);

}  // namespace kms
