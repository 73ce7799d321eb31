// Gate kinds and their Boolean/testing-theoretic properties.
//
// The paper's algorithm (Fig. 3) operates on networks of *simple* gates —
// gates that have a controlling value (AND/OR/NAND/NOR) or a single input
// (NOT/BUF). Complex gates (XOR/XNOR/MUX) are supported in the network
// representation so that generators can build circuits naturally (the
// carry-skip adder of Fig. 1 uses XOR and MUX gates); they are decomposed
// into simple gates, with the paper's delay-assignment rule, before the
// KMS algorithm runs.
#pragma once

#include <cassert>
#include <cstdint>
#include <string_view>

namespace kms {

enum class GateKind : std::uint8_t {
  kInput,   ///< primary input; no fanins
  kOutput,  ///< primary output marker; exactly one fanin, delay 0
  kConst0,  ///< constant 0; no fanins
  kConst1,  ///< constant 1; no fanins
  kBuf,     ///< identity; one fanin
  kNot,     ///< inverter; one fanin
  kAnd,     ///< n-input AND (n >= 1)
  kOr,      ///< n-input OR (n >= 1)
  kNand,    ///< n-input NAND (n >= 1)
  kNor,     ///< n-input NOR (n >= 1)
  kXor,     ///< n-input XOR (parity)
  kXnor,    ///< n-input XNOR (complement of parity)
  kMux,     ///< 3-input multiplexer: fanins (s, a, b); out = s ? a : b
};

/// Printable name of a gate kind ("and", "mux", ...).
std::string_view gate_kind_name(GateKind kind);

/// True for gates that carry a logic function (excludes IO markers).
constexpr bool is_logic(GateKind kind) {
  return kind != GateKind::kInput && kind != GateKind::kOutput;
}

/// True for constants.
constexpr bool is_constant(GateKind kind) {
  return kind == GateKind::kConst0 || kind == GateKind::kConst1;
}

/// Simple gates in the sense of Section VI of the paper: every multi-input
/// simple gate has a controlling value; single-input gates trivially
/// propagate every event.
constexpr bool is_simple(GateKind kind) {
  switch (kind) {
    case GateKind::kBuf:
    case GateKind::kNot:
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kNand:
    case GateKind::kNor:
      return true;
    default:
      return false;
  }
}

/// True if the gate kind has a controlling value (Definition 4.9).
constexpr bool has_controlling_value(GateKind kind) {
  switch (kind) {
    case GateKind::kAnd:
    case GateKind::kNand:
    case GateKind::kOr:
    case GateKind::kNor:
      return true;
    default:
      return false;
  }
}

/// The controlling value (Definition 4.9). Precondition:
/// has_controlling_value(kind).
constexpr bool controlling_value(GateKind kind) {
  return kind == GateKind::kOr || kind == GateKind::kNor;
}

/// The noncontrolling value — complement of the controlling value.
constexpr bool noncontrolling_value(GateKind kind) {
  return !controlling_value(kind);
}

/// True if the gate inverts: output phase is the complement of the
/// "natural" (AND/OR) phase. Defined for simple gates.
constexpr bool is_inverting(GateKind kind) {
  switch (kind) {
    case GateKind::kNot:
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kXnor:
      return true;
    default:
      return false;
  }
}

/// Output value of a gate with all inputs known. `inputs` packs one bit
/// per fanin, fanin 0 in bit 0. `n` is the fanin count.
bool eval_gate(GateKind kind, std::uint32_t inputs, std::uint32_t n);

/// Word-parallel output of a gate of `kind` with `pins` fanins whose pin
/// k reads `pin(k)`: 64 patterns at once, one per bit. Inputs carry no
/// function of their pins; their words come from the caller.
template <class Pin>
std::uint64_t eval_word(GateKind kind, std::uint32_t pins, Pin pin) {
  switch (kind) {
    case GateKind::kConst0:
      return 0;
    case GateKind::kConst1:
      return ~0ull;
    case GateKind::kInput:
      assert(false && "inputs are not evaluated");
      return 0;
    case GateKind::kOutput:
    case GateKind::kBuf:
      return pin(0);
    case GateKind::kNot:
      return ~pin(0);
    case GateKind::kAnd:
    case GateKind::kNand: {
      std::uint64_t w = ~0ull;
      for (std::uint32_t k = 0; k < pins; ++k) w &= pin(k);
      return kind == GateKind::kNand ? ~w : w;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      std::uint64_t w = 0;
      for (std::uint32_t k = 0; k < pins; ++k) w |= pin(k);
      return kind == GateKind::kNor ? ~w : w;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      std::uint64_t w = 0;
      for (std::uint32_t k = 0; k < pins; ++k) w ^= pin(k);
      return kind == GateKind::kXnor ? ~w : w;
    }
    case GateKind::kMux:
      return (pin(0) & pin(1)) | (~pin(0) & pin(2));
  }
  return 0;
}

}  // namespace kms
