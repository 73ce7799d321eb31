#include "src/base/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace kms {
namespace {

std::atomic<std::uint64_t> g_kill_counter{0};
std::atomic<std::uint64_t> g_kill_at{0};  // 1-based; 0 = disarmed
std::atomic<KillMode> g_kill_mode{KillMode::kOff};

[[noreturn]] void die_at(const char* name) {
  if (g_kill_mode.load(std::memory_order_relaxed) == KillMode::kThrow) {
    throw CrashInjected(name);
  }
  // A dirty death: no atexit handlers, no stream flushes, no destructors.
  // 137 mirrors the shell's encoding of SIGKILL so e2e scripts can treat
  // injected and real kills uniformly.
  std::_Exit(137);
}

std::string errno_msg(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

void kill_points_configure(KillMode mode, std::uint64_t at_index) {
  g_kill_counter.store(0, std::memory_order_relaxed);
  g_kill_at.store(at_index, std::memory_order_relaxed);
  g_kill_mode.store(mode, std::memory_order_relaxed);
}

std::uint64_t kill_points_seen() {
  return g_kill_counter.load(std::memory_order_relaxed);
}

void kill_point(const char* name) {
  const std::uint64_t n =
      g_kill_counter.fetch_add(1, std::memory_order_relaxed) + 1;
  const KillMode mode = g_kill_mode.load(std::memory_order_relaxed);
  if (mode == KillMode::kThrow || mode == KillMode::kExit) {
    if (n == g_kill_at.load(std::memory_order_relaxed)) die_at(name);
  }
}

void kill_points_init_from_env() {
  const char* at = std::getenv("KMS_CRASH_AT");
  if (at == nullptr || *at == '\0') return;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(at, &end, 10);
  if (end == at || *end != '\0' || n == 0) return;
  kill_points_configure(KillMode::kExit, n);
}

void fsync_fd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) throw std::runtime_error(errno_msg("fsync " + what));
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error(errno_msg("open dir " + dir));
  int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved;
    throw std::runtime_error(errno_msg("fsync dir " + dir));
  }
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void atomic_write_file(const std::string& path, const std::string& bytes) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error(errno_msg("open " + tmp));
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t w = ::write(fd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = saved;
      throw std::runtime_error(errno_msg("write " + tmp));
    }
    p += w;
    left -= static_cast<std::size_t>(w);
  }
  int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    ::unlink(tmp.c_str());
    errno = saved;
    throw std::runtime_error(errno_msg("fsync " + tmp));
  }
  // A crash before the rename leaves only the .tmp file; after it, the
  // target durably holds the new bytes once the directory entry is
  // synced. Either way no reader ever sees a torn target.
  kill_point("atomic_write.pre_rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rn = errno;
    ::unlink(tmp.c_str());
    errno = rn;
    throw std::runtime_error(errno_msg("rename " + tmp + " -> " + path));
  }
  kill_point("atomic_write.post_rename");
  fsync_dir(dir);
}

}  // namespace kms
