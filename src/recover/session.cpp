#include "src/recover/session.hpp"

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/atpg/fault.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/durable.hpp"
#include "src/base/rng.hpp"
#include "src/base/strings.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/verify.hpp"
#include "src/recover/fields.hpp"

namespace fs = std::filesystem;

namespace kms::recover {
namespace {

constexpr char kMetaTag[] = "meta\n";
constexpr char kStepTag[] = "step ";
constexpr char kCkptTag[] = "ckpt\n";
constexpr char kFinalTag[] = "final\n";

void bind(FieldTable& t, SessionMeta& m) {
  t.field("model", &m.model);
  t.field("mode", &m.mode);
  t.field("order", &m.order);
  t.field("seed", &m.seed);
  t.field("remove-remaining", &m.remove_remaining);
  t.field("max-iterations", &m.max_iterations);
  t.field("checkpoint-every", &m.checkpoint_every);
  t.hex("source-digest", &m.source_digest);
}

const char* order_name(RemovalOrder o) {
  switch (o) {
    case RemovalOrder::kForward: return "forward";
    case RemovalOrder::kReverse: return "reverse";
    case RemovalOrder::kRandom: return "random";
  }
  return "forward";
}

/// FNV-1a over the live structure in topological order: each gate's
/// kind, fanin pins (as topological indices), delays, arrival time and
/// name. Replaying a journal must reproduce it exactly; BLIF would not
/// do, since its reader re-elaborates covers into fresh gates.
std::uint64_t net_digest(const Network& net) {
  const std::vector<GateId> order = net.topo_order();
  std::vector<std::uint32_t> index(net.gate_capacity(), 0);
  for (std::uint32_t i = 0; i < order.size(); ++i) index[order[i].value()] = i;
  std::string bytes = net.name();
  for (const GateId g : order) {
    const Gate& gt = net.gate(g);
    bytes += '\n';
    bytes += gate_kind_name(gt.kind);
    bytes += str_format(" %.17g %.17g \"%s\"", gt.delay, gt.arrival,
                        gt.name.c_str());
    for (const ConnId c : gt.fanins)
      bytes += str_format(" %u:%.17g", index[net.conn(c).from.value()],
                          net.conn(c).delay);
  }
  return proof::digest_bytes(bytes);
}

/// Replay one journalled deletion: the step names the fault by its
/// canonical format_fault string, which is unique among the collapsed
/// representatives the engine scanned.
void replay_delete(Network& net, const std::string& what) {
  const std::vector<Fault> faults = collapsed_faults(net);
  const Fault* found = nullptr;
  for (const Fault& f : faults) {
    if (format_fault(net, f) == what) {
      found = &f;
      break;
    }
  }
  if (found == nullptr)
    throw std::runtime_error(
        "resume: journal deletes unknown fault '" + what +
        "' (journal does not match the replayed network)");
  apply_redundancy_removal(net, *found);
  simplify(net);
}

/// Deterministically re-apply the committed journal prefix onto the
/// freshly parsed network. No SAT: every verdict is in the record; only
/// the structural surgery repeats, cross-checked step by step.
void replay_steps(Network& net, const std::vector<proof::JournalStep>& steps,
                  proof::TransformJournal* journal) {
  using Kind = proof::JournalStep::Kind;
  bool have_dup = false;
  std::uint64_t pending_dup = 0;
  for (const proof::JournalStep& s : steps) {
    switch (s.kind) {
      case Kind::kDuplicate:
        if (have_dup)
          throw std::runtime_error(
              "resume: duplicate step not followed by a constant step");
        have_dup = true;
        pending_dup = s.count;
        break;
      case Kind::kConstant: {
        // One loop iteration = optional duplication + this constant;
        // the transform replays both from the network alone.
        const KmsLoopTransform t = kms_replay_loop_transform(net);
        if (t.duplicated != (have_dup ? pending_dup : 0))
          throw std::runtime_error(
              "resume: loop replay duplicated " +
              std::to_string(t.duplicated) + " gates, journal recorded " +
              std::to_string(have_dup ? pending_dup : 0));
        if (t.constant_conn != s.count)
          throw std::runtime_error(
              "resume: loop replay asserted constant on conn " +
              std::to_string(t.constant_conn) + ", journal recorded " +
              std::to_string(s.count));
        have_dup = false;
        pending_dup = 0;
        break;
      }
      case Kind::kDelete:
        replay_delete(net, s.what);
        break;
      // Verdict and degradation records change no structure; they are
      // re-journalled verbatim so the rebuilt journal is byte-identical.
      case Kind::kPathUnsens:
      case Kind::kPathGiveup:
      case Kind::kFaultUntestable:
      case Kind::kFaultUnknown:
      case Kind::kPartial:
        break;
    }
    journal->add(s);
  }
  if (have_dup)
    throw std::runtime_error(
        "resume: trailing duplicate step without its constant step");
}

/// Load the persisted certificate files the checkpoint counts back into
/// a fresh proof session, in index order (the ids journal steps cite).
void reload_certificates(const std::string& dir, const Checkpoint& ckpt,
                         proof::ProofSession* session) {
  for (std::uint64_t i = 0; i < ckpt.drat_certs; ++i) {
    const std::string base = dir + "/q" + std::to_string(i);
    std::ifstream cnf(base + ".cnf");
    std::ifstream drat(base + ".drat");
    if (!cnf || !drat)
      throw std::runtime_error("resume: missing certificate files " + base +
                               ".cnf/.drat");
    session->add_certificate(proof::read_certificate(cnf, drat));
  }
}

}  // namespace

SessionMeta make_meta(const std::string& model, const KmsOptions& opts,
                      std::uint64_t checkpoint_every,
                      std::uint64_t source_digest) {
  SessionMeta m;
  m.model = model;
  m.mode = opts.mode == SensitizationMode::kViability ? "viability" : "static";
  m.order = order_name(opts.removal.order);
  m.seed = opts.removal.seed;
  m.remove_remaining = opts.remove_remaining;
  m.max_iterations = opts.max_iterations;
  m.checkpoint_every = checkpoint_every;
  m.source_digest = source_digest;
  return m;
}

void apply_meta(const SessionMeta& meta, KmsOptions* opts) {
  opts->mode = meta.mode == "viability" ? SensitizationMode::kViability
                                        : SensitizationMode::kStatic;
  opts->max_iterations = static_cast<std::size_t>(meta.max_iterations);
  opts->remove_remaining = meta.remove_remaining;
  opts->removal.seed = meta.seed;
  opts->removal.order = meta.order == "reverse"   ? RemovalOrder::kReverse
                        : meta.order == "random" ? RemovalOrder::kRandom
                                                 : RemovalOrder::kForward;
}

std::string write_meta(const SessionMeta& m) {
  FieldTable t("meta");
  bind(t, const_cast<SessionMeta&>(m));
  return t.write();
}

SessionMeta read_meta(const std::string& text) {
  SessionMeta m;
  FieldTable t("meta");
  bind(t, m);
  t.read(text);
  if (m.mode != "static" && m.mode != "viability")
    throw std::runtime_error("meta: unknown mode '" + m.mode + "'");
  if (m.order != "forward" && m.order != "reverse" && m.order != "random")
    throw std::runtime_error("meta: unknown order '" + m.order + "'");
  return m;
}

ResumeInfo load_resume(const std::string& dir) {
  ResumeInfo info;
  const std::string wal_path = dir + "/wal.log";
  const WalReadResult wal = read_wal(wal_path);
  if (!wal.ok) throw std::runtime_error("resume: " + wal.error);
  if (wal.records.empty())
    throw std::runtime_error("resume: " + wal_path +
                             " holds no committed records");
  const std::string& first = wal.records[0].payload;
  if (!starts_with(first, kMetaTag))
    throw std::runtime_error("resume: " + wal_path +
                             " does not start with a meta record");
  info.meta = read_meta(first.substr(sizeof(kMetaTag) - 1));
  info.wal_valid_bytes = wal.records[0].end_offset;

  std::vector<proof::JournalStep> steps;
  bool completed = false;
  for (std::size_t i = 1; i < wal.records.size(); ++i) {
    const WalRecord& rec = wal.records[i];
    if (starts_with(rec.payload, kStepTag)) {
      steps.push_back(proof::parse_step(rec.payload));
    } else if (starts_with(rec.payload, kCkptTag)) {
      info.ckpt = read_checkpoint(rec.payload.substr(sizeof(kCkptTag) - 1));
      if (steps.size() != info.ckpt.steps)
        throw std::runtime_error(
            "resume: checkpoint claims " + std::to_string(info.ckpt.steps) +
            " journal steps but the log holds " +
            std::to_string(steps.size()));
      info.has_checkpoint = true;
      info.wal_valid_bytes = rec.end_offset;
    } else if (starts_with(rec.payload, kFinalTag)) {
      completed = true;
    } else {
      throw std::runtime_error("resume: unknown record type in " + wal_path);
    }
  }
  if (completed)
    throw std::runtime_error(
        "resume: session in " + dir +
        " completed successfully — nothing to resume");
  // Steps logged after the last checkpoint are uncommitted work the
  // continued run will regenerate deterministically.
  steps.resize(info.has_checkpoint ? info.ckpt.steps : 0);
  info.steps = std::move(steps);

  std::optional<std::string> source = read_file(dir + "/source.blif");
  if (!source)
    throw std::runtime_error("resume: cannot open source.blif (" + dir +
                             "/source.blif)");
  info.source = std::move(*source);
  if (proof::digest_bytes(info.source) != info.meta.source_digest)
    throw std::runtime_error(
        "resume: source.blif does not match the session's recorded digest");
  return info;
}

ResumeSetup prepare_resume(const std::string& dir) {
  ResumeSetup rs;
  rs.info = load_resume(dir);
  rs.model = read_blif_sequential_string(rs.info.source);
  rs.proof_input = write_blif_string(rs.model.comb);
  rs.session.journal.set_model(rs.model.comb.name());
  rs.session.journal.set_input_digest(proof::digest_bytes(rs.proof_input));
  if (!rs.info.has_checkpoint) return rs;  // restart from scratch

  replay_steps(rs.model.comb, rs.info.steps, &rs.session.journal);
  const std::uint64_t got = net_digest(rs.model.comb);
  if (got != rs.info.ckpt.net_digest)
    throw std::runtime_error(str_format(
        "resume: replayed network digest %016llx does not match checkpoint "
        "digest %016llx",
        static_cast<unsigned long long>(got),
        static_cast<unsigned long long>(rs.info.ckpt.net_digest)));
  reload_certificates(dir, rs.info.ckpt, &rs.session);

  rs.state.phase = rs.info.ckpt.phase;
  rs.state.cursor = rs.info.ckpt.cursor;
  rs.state.stats = rs.info.ckpt.stats;
  rs.state.rng_state = rs.info.ckpt.rng_state;
  return rs;
}

DurableSession::DurableSession(std::string dir, WalWriter wal,
                               proof::ProofSession* session,
                               std::uint64_t checkpoint_every)
    : dir_(std::move(dir)),
      wal_(std::move(wal)),
      session_(session),
      checkpoint_every_(checkpoint_every) {}

DurableSession DurableSession::create(const std::string& dir,
                                      const SessionMeta& meta,
                                      const std::string& source_bytes,
                                      proof::ProofSession* session) {
  fs::create_directories(dir);
  atomic_write_file(dir + "/source.blif", source_bytes);
  WalWriter wal = WalWriter::create(dir + "/wal.log");
  wal.append(std::string(kMetaTag) + write_meta(meta));
  wal.sync();
  return DurableSession(dir, std::move(wal), session, meta.checkpoint_every);
}

DurableSession DurableSession::attach(const std::string& dir,
                                      const ResumeInfo& info,
                                      proof::ProofSession* session) {
  // Sweep everything the discarded suffix (and any mid-write crash) may
  // have left: finalize artifacts, orphaned .tmp files, certificate
  // files beyond the checkpoint's counts. All are regenerated.
  fs::remove(dir + "/journal.txt");
  fs::remove(dir + "/input.blif");
  fs::remove(dir + "/output.blif");
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") fs::remove(entry.path());
  }
  for (std::uint64_t i = info.has_checkpoint ? info.ckpt.drat_certs : 0;;
       ++i) {
    const std::string base = dir + "/q" + std::to_string(i);
    const bool a = fs::remove(base + ".cnf");
    const bool b = fs::remove(base + ".drat");
    if (!a && !b) break;
  }
  WalWriter wal = WalWriter::attach(dir + "/wal.log", info.wal_valid_bytes);
  DurableSession d(dir, std::move(wal), session, info.meta.checkpoint_every);
  if (info.has_checkpoint) {
    d.persisted_steps_ = static_cast<std::size_t>(info.ckpt.steps);
    d.persisted_drat_ = static_cast<std::size_t>(info.ckpt.drat_certs);
    d.last_kms_ = info.ckpt.stats;
  }
  return d;
}

void DurableSession::persist_new_certificates() {
  const std::size_t drat = session_->certificates().size();
  if (drat > persisted_drat_)
    proof::write_certificate_files(*session_, dir_, persisted_drat_);
  persisted_drat_ = drat;
}

void DurableSession::flush_steps() {
  const std::vector<proof::JournalStep>& steps = session_->journal.steps();
  for (std::size_t i = persisted_steps_; i < steps.size(); ++i)
    wal_.append(std::string(kStepTag) + proof::format_step(steps[i]));
  persisted_steps_ = steps.size();
}

void DurableSession::append_checkpoint(const CommitPoint& point) {
  Checkpoint c;
  c.phase = point.phase;
  c.cursor = point.cursor;
  c.steps = persisted_steps_;
  c.drat_certs = persisted_drat_;
  c.net_digest = net_digest(*point.net);
  if (point.rng != nullptr) c.rng_state = point.rng->save_state();
  if (point.kms != nullptr) {
    c.stats = *point.kms;
    last_kms_ = *point.kms;
  } else {
    // Removal-phase commits carry only the removal result; compose it
    // with the stats snapshot from the phase boundary.
    c.stats = last_kms_;
    if (point.removal != nullptr) c.stats.removal = *point.removal;
  }
  wal_.append(std::string(kCkptTag) + write_checkpoint(c));
  commits_since_ckpt_ = 0;
  ++checkpoints_taken_;
}

void DurableSession::commit(const CommitPoint& point) {
  // Certificate files first: a durable WAL record may cite them, the
  // reverse order could not be recovered.
  persist_new_certificates();
  flush_steps();
  ++commits_since_ckpt_;
  if (checkpoint_every_ > 0 && commits_since_ckpt_ >= checkpoint_every_)
    append_checkpoint(point);
  wal_.sync();
}

void DurableSession::checkpoint(const CommitPoint& point) {
  persist_new_certificates();
  flush_steps();
  append_checkpoint(point);
  wal_.sync();
}

void DurableSession::finalize(const std::string& input_blif,
                              const std::string& output_blif) {
  persist_new_certificates();
  flush_steps();
  // The journal goes last, so a directory that has one also has the
  // netlists it brackets, even when the process dies before the final
  // record below.
  atomic_write_file(dir_ + "/input.blif", input_blif);
  atomic_write_file(dir_ + "/output.blif", output_blif);
  atomic_write_file(dir_ + "/journal.txt", session_->journal.to_text());
  // The final record is the completion commit point: only after it is
  // durable does the directory stop being "a crashed session".
  std::uint64_t output_digest = session_->journal.output_digest();
  bool partial = session_->journal.partial();
  FieldTable fin("final");
  fin.hex("output-digest", &output_digest);
  fin.field("partial", &partial);
  wal_.append(kFinalTag + fin.write());
  wal_.sync();
}

}  // namespace kms::recover
