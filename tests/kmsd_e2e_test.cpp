// kmsd end-to-end: drives the real daemon binary over its Unix-domain
// socket with real NDJSON jobs, and proves the service contract:
//
//  - a job submitted to kmsd produces byte-identical artifacts (output
//    BLIF, proof journal) to the same job run through kmscli, at
//    jobs=1 and jobs=4, and both artifact sets pass kmsproof;
//  - resubmitting an identical job is answered from the digest cache;
//  - the payload-less "stats" kind reports the daemon's own counters;
//  - admission control rejects loudly (bounded queue, per-client cap);
//  - SIGTERM during a loaded run drains: every accepted job gets
//    exactly one terminal event, the daemon exits 0, completed durable
//    jobs leave kmsproof-verifiable artifact directories, and rejected
//    jobs leave nothing half-committed behind.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/gen/adders.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/serve/job.hpp"
#include "src/serve/json.hpp"
#include "tests/temp_path.hpp"

#ifndef KMSD_PATH
#error "KMSD_PATH must be defined by the build"
#endif
#ifndef KMSCLI_PATH
#error "KMSCLI_PATH must be defined by the build"
#endif
#ifndef KMSPROOF_PATH
#error "KMSPROOF_PATH must be defined by the build"
#endif

namespace kms {
namespace {

using serve::JobKind;
using serve::JobSpec;
using serve::Json;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run_tool(const std::string& cmd) {
  const int raw = std::system(cmd.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

/// A redundant circuit on disk; returns its path (and bytes).
std::string make_input(const std::string& name, std::string* bytes,
                       unsigned bits = 4, unsigned skip = 2) {
  Network net = carry_skip_adder(bits, skip);
  decompose_to_simple(net);
  const std::string path = temp_path(name);
  write_blif_file(net, path);
  if (bytes != nullptr) *bytes = slurp(path);
  return path;
}

/// One running kmsd with a connected NDJSON client.
class Daemon {
 public:
  explicit Daemon(std::vector<std::string> extra_flags = {}) {
    socket_path_ = temp_path("kmsd.sock");
    std::remove(socket_path_.c_str());
    pid_ = ::fork();
    if (pid_ == 0) {
      std::vector<std::string> args = {KMSD_PATH, "--socket", socket_path_};
      for (const std::string& f : extra_flags) args.push_back(f);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      // Quiet child stderr; the tests assert on the wire, not the log.
      ::freopen("/dev/null", "w", stderr);
      ::execv(KMSD_PATH, argv.data());
      std::_Exit(127);
    }
  }

  ~Daemon() {
    if (fd_ >= 0) ::close(fd_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    std::remove(socket_path_.c_str());
  }

  /// Connect, retrying until the daemon has bound the socket.
  bool connect() {
    for (int attempt = 0; attempt < 200; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_path_.c_str(),
                   sizeof addr.sun_path - 1);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0)
        return true;
      ::close(fd_);
      fd_ = -1;
      ::usleep(25 * 1000);
    }
    return false;
  }

  void submit(const JobSpec& spec) { send_raw(spec.to_json() + "\n"); }

  void send_raw(const std::string& line) {
    ASSERT_EQ(::send(fd_, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
  }

  /// Read events until `terminals` done/rejected events have arrived
  /// (or the daemon closes the stream). Returns all raw event lines.
  std::vector<std::string> read_events(std::size_t terminals) {
    std::vector<std::string> events;
    std::string buffer;
    std::size_t seen = 0;
    char chunk[1 << 16];
    while (seen < terminals) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = buffer.find('\n', start);
           nl != std::string::npos; nl = buffer.find('\n', start)) {
        const std::string line = buffer.substr(start, nl - start);
        start = nl + 1;
        if (line.empty()) continue;
        events.push_back(line);
        const Json ev = Json::parse(line);
        const std::string kind = ev.find("event")->as_string();
        if (kind == "done" || kind == "rejected") ++seen;
      }
      buffer.erase(0, start);
    }
    return events;
  }

  /// Half-close our write side (drain our submissions) — the daemon
  /// still delivers every pending report.
  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  void send_sigterm() { ::kill(pid_, SIGTERM); }

  /// Wait for the daemon to exit; returns its exit code (-1 on signal).
  int wait_exit() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  int fd_ = -1;
};

/// The terminal event for submission `id`, or nullptr.
const std::string* terminal_for(const std::vector<std::string>& events,
                                std::uint64_t id, std::string* kind) {
  for (const std::string& line : events) {
    const Json ev = Json::parse(line);
    const std::string k = ev.find("event")->as_string();
    if ((k == "done" || k == "rejected") && ev.find("id") != nullptr &&
        ev.find("id")->as_u64() == id) {
      *kind = k;
      return &line;
    }
  }
  return nullptr;
}

TEST(KmsdE2eTest, ArtifactsByteIdenticalToKmscliAtJobs1And4) {
  std::string blif_bytes;
  const std::string input = make_input("kmsd_bi.blif", &blif_bytes);
  const std::string cli_out = temp_path("kmsd_bi_cli_out.blif");
  const std::string cli_dir = temp_path("kmsd_bi_cli_proof");
  ASSERT_EQ(run_tool(std::string(KMSCLI_PATH) + " irr " + input + " -o " +
                     cli_out + " --certify --emit-proof " + cli_dir +
                     " 2>/dev/null"),
            0);

  Daemon daemon;
  ASSERT_TRUE(daemon.connect());
  std::map<int, std::string> dirs, outs;
  int id = 0;
  for (const std::uint64_t jobs : {1u, 4u}) {
    ++id;
    JobSpec spec;
    spec.kind = JobKind::kCertify;
    spec.blif = blif_bytes;
    spec.jobs = jobs;
    spec.emit_proof = temp_path("kmsd_bi_d" + std::to_string(jobs));
    spec.output_path = temp_path("kmsd_bi_out" + std::to_string(jobs));
    spec.want_output = false;
    dirs[id] = spec.emit_proof;
    outs[id] = spec.output_path;
    daemon.submit(spec);
  }
  const auto events = daemon.read_events(2);

  const std::string cli_blif = slurp(cli_out);
  const std::string cli_journal = slurp(cli_dir + "/journal.txt");
  for (const auto& [which, dir] : dirs) {
    std::string kind;
    const std::string* line = terminal_for(events, which, &kind);
    ASSERT_NE(line, nullptr) << "job " << which << " got no terminal event";
    ASSERT_EQ(kind, "done") << *line;
    const Json ev = Json::parse(*line);
    const Json* rep = ev.find("report");
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(rep->find("verdict")->as_string(), "ok") << *line;
    EXPECT_TRUE(rep->find("certified")->as_bool());
    // The daemon's artifacts are the CLI's artifacts, byte for byte.
    EXPECT_EQ(slurp(outs[which]), cli_blif) << "jobs variant " << which;
    EXPECT_EQ(slurp(dir + "/journal.txt"), cli_journal);
    EXPECT_EQ(run_tool(std::string(KMSPROOF_PATH) + " " + dir +
                       " >/dev/null 2>&1"),
              0);
  }
  EXPECT_EQ(run_tool(std::string(KMSPROOF_PATH) + " " + cli_dir +
                     " >/dev/null 2>&1"),
            0);
  for (const auto& [which, dir] : dirs)
    std::filesystem::remove_all(dir);
  std::filesystem::remove_all(cli_dir);
  for (const auto& [which, out] : outs) std::remove(out.c_str());
  std::remove(cli_out.c_str());
  std::remove(input.c_str());
}

TEST(KmsdE2eTest, IdenticalResubmissionIsServedFromTheCache) {
  std::string blif_bytes;
  const std::string input = make_input("kmsd_cache.blif", &blif_bytes);
  Daemon daemon;
  ASSERT_TRUE(daemon.connect());
  JobSpec spec;
  spec.kind = JobKind::kIrr;
  spec.blif = blif_bytes;

  daemon.submit(spec);
  const auto first = daemon.read_events(1);
  std::string kind;
  ASSERT_NE(terminal_for(first, 1, &kind), nullptr);
  ASSERT_EQ(kind, "done");

  daemon.submit(spec);  // byte-identical spec, same connection
  const auto second = daemon.read_events(1);
  const std::string* line = terminal_for(second, 2, &kind);
  ASSERT_NE(line, nullptr);
  ASSERT_EQ(kind, "done");
  const Json ev = Json::parse(*line);
  EXPECT_TRUE(ev.find("report")->find("cache_hit")->as_bool()) << *line;
  bool saw_cache_event = false;
  for (const std::string& l : second)
    saw_cache_event |=
        Json::parse(l).find("event")->as_string() == "cache-hit";
  EXPECT_TRUE(saw_cache_event);
  // Same result bytes as the first run.
  const Json done1 = Json::parse(*terminal_for(first, 1, &kind));
  EXPECT_EQ(ev.find("report")->find("output_digest")->as_u64(),
            done1.find("report")->find("output_digest")->as_u64());

  // The daemon's own counters confirm the hit.
  JobSpec stats;
  stats.kind = JobKind::kStats;
  daemon.submit(stats);
  const auto third = daemon.read_events(1);
  const Json srep = Json::parse(*terminal_for(third, 3, &kind));
  EXPECT_GE(srep.find("report")->find("daemon_cache_hits")->as_u64(), 1u);
  EXPECT_GE(srep.find("report")->find("daemon_served")->as_u64(), 2u);
  std::remove(input.c_str());
}

TEST(KmsdE2eTest, PayloadlessStatsReportsDaemonCounters) {
  Daemon daemon;
  ASSERT_TRUE(daemon.connect());
  JobSpec stats;
  stats.kind = JobKind::kStats;
  daemon.submit(stats);
  const auto events = daemon.read_events(1);
  std::string kind;
  const std::string* line = terminal_for(events, 1, &kind);
  ASSERT_NE(line, nullptr);
  ASSERT_EQ(kind, "done");
  const Json rep = Json::parse(*line);
  EXPECT_EQ(rep.find("report")->find("kind")->as_string(), "stats");
  EXPECT_EQ(rep.find("report")->find("verdict")->as_string(), "ok");
  EXPECT_EQ(rep.find("report")->find("daemon_served")->as_u64(), 0u);
}

TEST(KmsdE2eTest, AdmissionControlRejectsLoudly) {
  std::string blif_bytes;
  const std::string input = make_input("kmsd_adm.blif", &blif_bytes, 2, 2);
  {
    // A zero-length queue rejects every job, with the reason named.
    Daemon daemon({"--queue-max", "0"});
    ASSERT_TRUE(daemon.connect());
    JobSpec spec;
    spec.kind = JobKind::kStats;
    spec.blif = blif_bytes;
    daemon.submit(spec);
    const auto events = daemon.read_events(1);
    std::string kind;
    const std::string* line = terminal_for(events, 1, &kind);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(kind, "rejected");
    EXPECT_NE(Json::parse(*line).find("reason")->as_string().find(
                  "queue full"),
              std::string::npos);
  }
  {
    // A zero per-client cap trips before the queue is even consulted.
    Daemon daemon({"--per-client-max", "0"});
    ASSERT_TRUE(daemon.connect());
    JobSpec spec;
    spec.kind = JobKind::kStats;
    spec.blif = blif_bytes;
    daemon.submit(spec);
    const auto events = daemon.read_events(1);
    std::string kind;
    const std::string* line = terminal_for(events, 1, &kind);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(kind, "rejected");
    EXPECT_NE(Json::parse(*line).find("reason")->as_string().find(
                  "per-client cap"),
              std::string::npos);
  }
  {
    // Malformed and wrong-schema lines are rejected, never crash the
    // daemon, and do not poison the connection for later jobs.
    Daemon daemon;
    ASSERT_TRUE(daemon.connect());
    daemon.send_raw("this is not json\n");                        // id 1
    daemon.send_raw("{\"schema\":\"kms-job-v999\",\"kind\":\"irr\"}\n");
    JobSpec good;                                                 // id 3
    good.kind = JobKind::kStats;
    good.blif = blif_bytes;
    daemon.submit(good);
    const auto events = daemon.read_events(3);
    std::string kind;
    ASSERT_NE(terminal_for(events, 1, &kind), nullptr);
    EXPECT_EQ(kind, "rejected");
    ASSERT_NE(terminal_for(events, 2, &kind), nullptr);
    EXPECT_EQ(kind, "rejected");
    ASSERT_NE(terminal_for(events, 3, &kind), nullptr);
    EXPECT_EQ(kind, "done");
  }
  std::remove(input.c_str());
}

TEST(KmsdE2eTest, SigtermDrainsWithoutHalfCommittedJobs) {
  std::string blif_bytes;
  const std::string input =
      make_input("kmsd_drain.blif", &blif_bytes, 6, 2);
  Daemon daemon({"--workers", "1"});  // serialize: a real backlog forms
  ASSERT_TRUE(daemon.connect());

  constexpr int kJobs = 4;
  std::map<int, std::string> dirs;
  for (int i = 1; i <= kJobs; ++i) {
    JobSpec spec;
    spec.kind = JobKind::kCertify;
    spec.blif = blif_bytes;
    spec.emit_proof = temp_path("kmsd_drain_d" + std::to_string(i));
    spec.want_output = false;
    dirs[i] = spec.emit_proof;
    daemon.submit(spec);
  }
  // Let the first job start, then pull the plug mid-load.
  ::usleep(200 * 1000);
  daemon.send_sigterm();
  daemon.finish_sending();
  const auto events = daemon.read_events(kJobs);
  EXPECT_EQ(daemon.wait_exit(), 0) << "drain must exit cleanly";

  int done = 0, rejected = 0;
  for (int i = 1; i <= kJobs; ++i) {
    std::string kind;
    const std::string* line = terminal_for(events, i, &kind);
    ASSERT_NE(line, nullptr)
        << "job " << i << " vanished in the drain (half-committed?)";
    if (kind == "done") {
      ++done;
      // Whatever finished — interrupted or not — left a complete,
      // independently verifiable artifact directory.
      EXPECT_EQ(run_tool(std::string(KMSPROOF_PATH) + " " + dirs[i] +
                         " >/dev/null 2>&1"),
                0)
          << "artifact dir of drained job " << i << " does not verify";
    } else {
      ++rejected;
      // A rejected job never ran: nothing was created in its name.
      EXPECT_FALSE(std::filesystem::exists(dirs[i]))
          << "rejected job " << i << " left artifacts behind";
    }
  }
  EXPECT_EQ(done + rejected, kJobs);
  EXPECT_GE(done, 1) << "the running job must be allowed to finish";

  for (const auto& [i, dir] : dirs) std::filesystem::remove_all(dir);
  std::remove(input.c_str());
}

}  // namespace
}  // namespace kms
