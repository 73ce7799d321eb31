// BLIF (Berkeley Logic Interchange Format) reader and writer.
//
// The paper's experiments ran inside MIS-II, whose native exchange format
// is BLIF; supporting it lets users bring their own benchmark circuits to
// this implementation. The subset handled is the combinational core:
// .model/.inputs/.outputs/.names/.end with 1-phase and 0-phase covers and
// don't-care '-' input literals. Latches and subcircuits are rejected.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/netlist/network.hpp"

namespace kms {

struct BlifError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parse a combinational BLIF model into a network. Every logic gate
/// created while elaborating covers gets unit delay (the paper's
/// experiments use a unit gate-delay model). Throws BlifError on
/// malformed input (including any .latch — see read_blif_sequential).
Network read_blif(std::istream& in);
Network read_blif_string(const std::string& text);
Network read_blif_file(const std::string& path);

/// Serialize a network as BLIF. Gates with more than `max_sop_inputs`
/// fanins are emitted as multi-line covers only for AND/OR-family kinds;
/// wide XOR gates are rejected (decompose first).
void write_blif(const Network& net, std::ostream& out);
std::string write_blif_string(const Network& net);
void write_blif_file(const Network& net, const std::string& path);

/// Sequential BLIF (.latch) support. The parsed core follows the
/// SeqNetwork interface convention: latch outputs are appended after
/// the declared .inputs, latch data signals after the declared
/// .outputs, in .latch order.
struct BlifSequential {
  Network comb;
  std::vector<bool> latch_init;  ///< one entry per latch ('2'/'3' -> 0)
};
BlifSequential read_blif_sequential(std::istream& in);
BlifSequential read_blif_sequential_string(const std::string& text);

/// Serialize a sequential core (SeqNetwork convention) with .latch
/// lines for the trailing `num_latches` input/output pairs.
void write_blif_sequential(const Network& comb, std::size_t num_latches,
                           const std::vector<bool>& latch_init,
                           std::ostream& out);

}  // namespace kms
