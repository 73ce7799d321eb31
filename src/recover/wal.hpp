// Append-only write-ahead log with torn-write-tolerant framing.
//
// The WAL is the durability backbone of a crash-safe session
// (src/recover/session.hpp): every committed journal step, checkpoint
// and the final completion marker is appended as one framed record
//
//   [u32 payload length, LE] [u64 FNV-1a(payload), LE] [payload bytes]
//
// behind the magic header "kms-wal v1\n". Appends are plain writes; the
// explicit sync() is the commit barrier — a record is durable exactly
// when a sync() after it returned. A crash mid-append leaves a torn
// tail (truncated frame, or a frame whose checksum fails); the reader
// detects it, surfaces every intact record before it, and reports the
// byte offset to truncate to, so a resumed session continues from a
// clean prefix. A record whose checksum fails is never surfaced —
// framing corruption and deliberate tampering look identical and both
// end the valid prefix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace kms::recover {

inline constexpr char kWalMagic[] = "kms-wal v1\n";

class WalWriter {
 public:
  /// Create (or overwrite) the log at `path`: write the magic header
  /// and sync it. Throws std::runtime_error on I/O failure.
  static WalWriter create(const std::string& path);

  /// Re-attach to an existing log for appending, first truncating it to
  /// `size` bytes — the reader-reported end of the valid prefix (torn
  /// tails and discarded post-checkpoint records die here).
  static WalWriter attach(const std::string& path, std::uint64_t size);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Append one framed record. Buffered by the OS only — not durable
  /// until the next sync().
  void append(const std::string& payload);

  /// fsync barrier (bracketed by kill points): on return every record
  /// appended so far is durable.
  void sync();

 private:
  WalWriter(int fd, std::string path);

  int fd_ = -1;
  std::string path_;
};

struct WalRecord {
  std::string payload;
  std::uint64_t end_offset = 0;  ///< file offset just past this record
};

struct WalReadResult {
  bool ok = false;     ///< header valid and file readable
  std::string error;   ///< precise failure reason when !ok
  std::vector<WalRecord> records;  ///< every intact record, in order
  /// Offset just past the last intact record (== header size for an
  /// empty log). Everything after it is torn/corrupt and must be
  /// truncated before appending resumes.
  std::uint64_t valid_bytes = 0;
  bool torn_tail = false;  ///< trailing bytes after valid_bytes discarded
};

/// Read and validate a WAL. Never throws on malformed content: torn or
/// tampered tails are truncated out of the result, a missing/invalid
/// header or unreadable file reports !ok with a precise error.
WalReadResult read_wal(const std::string& path);

}  // namespace kms::recover
