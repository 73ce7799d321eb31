// Durable file I/O primitives and the crash-injection kill-point registry.
//
// Every byte the recovery subsystem (src/recover/) relies on after a
// crash goes through these two functions:
//
//  * atomic_write_file — write-temp-then-rename with fsync barriers on
//    both the file and its directory, so a reader never observes a
//    half-written snapshot or certificate: the target path holds either
//    the old bytes or the new bytes, atomically.
//  * fsync_fd / fsync_dir — the explicit durability barriers the
//    append-only journal (src/recover/wal.*) places at commit points.
//
// read_file is the one whole-file reader beside them: the WAL, resume,
// proof-directory verification and job payloads read through it.
//
// Kill points are the crash-injection hooks of the durability layer, in
// the spirit of FaultInjector (src/base/governor.hpp) but for process
// death instead of solver aborts: every fsync / rename / commit boundary
// calls kill_point(name), and a deterministic schedule can crash the
// process at exactly the Nth boundary — either by throwing CrashInjected
// (in-process property tests, which then resume in the same process) or
// by std::_Exit(137) (end-to-end tests driving the real CLI, via the
// KMS_CRASH_AT environment variable). Crash-equivalence tests enumerate
// the reachable kill points (kCount), then crash at every single one and
// assert that resume reproduces the uninterrupted run bit-identically.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <string>

namespace kms {

/// Thrown by kill_point() in KillMode::kThrow to simulate a crash
/// in-process. Deliberately NOT derived from std::runtime_error: generic
/// `catch (const std::exception&)` error paths in the pipeline would
/// otherwise swallow the simulated crash and defeat the test.
class CrashInjected : public std::exception {
 public:
  explicit CrashInjected(std::string point) : point_(std::move(point)) {}
  const char* what() const noexcept override { return point_.c_str(); }
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

enum class KillMode : std::uint8_t {
  kOff,    ///< kill points only count (cheap atomic increment)
  kCount,  ///< same as kOff; named for test readability
  kThrow,  ///< at the armed index: throw CrashInjected
  kExit,   ///< at the armed index: std::_Exit(137), a real dirty death
};

/// Arm (or disarm) the process-global kill schedule and reset the
/// counter. `at_index` is 1-based: the Nth kill_point() call crashes.
void kill_points_configure(KillMode mode, std::uint64_t at_index = 0);

/// Kill points passed since the last configure call.
std::uint64_t kill_points_seen();

/// Declare a crash boundary. In kThrow/kExit mode the armed index dies
/// here; otherwise this is one relaxed atomic increment.
void kill_point(const char* name);

/// CLI hook: arm kExit mode from KMS_CRASH_AT=<n> (used by the
/// end-to-end crash tests to kill the real binary at a deterministic
/// durability boundary). No-op when the variable is unset or invalid.
void kill_points_init_from_env();

/// fsync an open descriptor; throws std::runtime_error on failure.
void fsync_fd(int fd, const std::string& what);

/// fsync a directory so a completed rename inside it is durable.
void fsync_dir(const std::string& dir);

/// The whole contents of `path`, or nullopt when it cannot be opened.
/// Callers word their own error.
std::optional<std::string> read_file(const std::string& path);

/// Durably replace `path` with `bytes`: write to a sibling temp file,
/// fsync it, rename over `path`, fsync the directory. Kill points
/// bracket the rename. Throws std::runtime_error on any I/O failure.
void atomic_write_file(const std::string& path, const std::string& bytes);

}  // namespace kms
