// Checkpoint records: one committed, resumable pipeline state.
//
// A checkpoint is everything the resume path cannot re-derive from the
// journal prefix alone: the phase cursor, the committed counters
// (KmsStats with the nested removal and ATPG stats), the removal-phase
// scan rng state, the proof-session sizes
// (journal steps / certificate count the prefix is truncated to), and
// the FNV-1a digest of the exact network structure — the cross-check
// that the deterministic journal replay reconstructed the bit-identical
// structure before the run continues.
//
// Serialized as a key-value record (src/recover/fields.hpp) inside one
// WAL record.
#pragma once

#include <cstdint>
#include <string>

#include "src/core/kms.hpp"

namespace kms::recover {

struct Checkpoint {
  std::string phase;         ///< "loop" | "removal"
  std::uint64_t cursor = 0;  ///< loop iterations | removal passes
  std::uint64_t steps = 0;   ///< journal steps committed at this point
  std::uint64_t drat_certs = 0;  ///< DRAT certificates registered
  std::uint64_t net_digest = 0;  ///< structure digest (src/recover/session.cpp)
  std::string rng_state;  ///< removal scan rng; "" in the loop phase
  KmsStats stats;         ///< full committed counters
};

/// Serialize as the payload of a "ckpt" WAL record.
std::string write_checkpoint(const Checkpoint& c);

/// Inverse of write_checkpoint. Throws std::runtime_error on any
/// unknown key, missing field or malformed value.
Checkpoint read_checkpoint(const std::string& text);

}  // namespace kms::recover
