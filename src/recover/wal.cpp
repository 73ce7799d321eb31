#include "src/recover/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "src/base/durable.hpp"
#include "src/base/strings.hpp"

namespace kms::recover {
namespace {

constexpr std::size_t kMagicLen = sizeof(kWalMagic) - 1;
constexpr std::size_t kFrameLen = 4 + 8;
/// Upper bound on one record; anything larger is framing garbage (a
/// checkpoint of a million-gate run stays well under this).
constexpr std::uint32_t kMaxRecord = 1u << 30;

std::string errno_msg(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void write_all(int fd, const char* p, std::size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(errno_msg("write " + path));
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32(const std::string& s, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& s, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  return v;
}

}  // namespace

WalWriter::WalWriter(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

WalWriter WalWriter::create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error(errno_msg("open " + path));
  WalWriter w(fd, path);
  write_all(fd, kWalMagic, kMagicLen, path);
  w.sync();
  return w;
}

WalWriter WalWriter::attach(const std::string& path, std::uint64_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) throw std::runtime_error(errno_msg("open " + path));
  WalWriter w(fd, path);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0)
    throw std::runtime_error(errno_msg("truncate " + path));
  if (::lseek(fd, 0, SEEK_END) < 0)
    throw std::runtime_error(errno_msg("seek " + path));
  // Make the truncation itself durable before any new record lands
  // after it — otherwise a crash could resurrect the discarded tail
  // *behind* freshly committed records.
  w.sync();
  return w;
}

void WalWriter::append(const std::string& payload) {
  if (payload.empty() || payload.size() > kMaxRecord)
    throw std::runtime_error("wal: refusing to append record of " +
                             std::to_string(payload.size()) + " bytes");
  std::string frame;
  frame.reserve(kFrameLen + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u64(frame, digest_bytes(payload));
  frame += payload;
  write_all(fd_, frame.data(), frame.size(), path_);
}

void WalWriter::sync() {
  kill_point("wal.pre_sync");
  fsync_fd(fd_, path_);
  kill_point("wal.post_sync");
}

WalReadResult read_wal(const std::string& path) {
  WalReadResult out;
  const std::optional<std::string> file = read_file(path);
  if (!file) {
    out.error = "cannot open " + path;
    return out;
  }
  const std::string& bytes = *file;
  if (bytes.size() < kMagicLen ||
      bytes.compare(0, kMagicLen, kWalMagic, kMagicLen) != 0) {
    out.error = path + ": missing 'kms-wal v1' header";
    return out;
  }
  out.ok = true;
  std::size_t pos = kMagicLen;
  out.valid_bytes = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameLen) break;  // torn frame header
    const std::uint32_t len = get_u32(bytes, pos);
    if (len == 0 || len > kMaxRecord) break;  // framing garbage
    if (bytes.size() - pos - kFrameLen < len) break;  // torn payload
    const std::uint64_t want = get_u64(bytes, pos + 4);
    std::string payload = bytes.substr(pos + kFrameLen, len);
    // A checksum mismatch ends the valid prefix: a torn rewrite and a
    // tampered record are indistinguishable here, and neither may ever
    // be surfaced as data.
    if (digest_bytes(payload) != want) break;
    pos += kFrameLen + len;
    out.records.push_back(WalRecord{std::move(payload), pos});
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes < bytes.size();
  return out;
}

}  // namespace kms::recover
