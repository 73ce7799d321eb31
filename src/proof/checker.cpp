#include "src/proof/checker.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/strings.hpp"

namespace kms::proof {
namespace {

using Lits = std::span<const std::int32_t>;

/// FNV-1a over the literals, in order: equal clauses hash equal.
std::uint64_t clause_hash(Lits lits) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::int32_t l : lits) {
    h ^= static_cast<std::uint32_t>(l);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

/// The checker's state. Every clause's literals sit in one arena; the
/// watch lists and per-variable arrays keep their storage from one
/// certificate to the next.
class DratChecker::Rup {
 public:
  static constexpr std::uint32_t kNoReason = 0xffffffffu;
  static constexpr std::uint32_t kPremise = 0xfffffffeu;  // assumption/unit

  /// Empty database and assignment over variables 1..max_var.
  void reset(std::int32_t max_var) {
    const std::size_t vars = static_cast<std::size_t>(max_var) + 1;
    value_.assign(vars, 0);
    reason_.assign(vars, kNoReason);
    // Lists past the previous certificate's range were emptied before
    // it and not touched since.
    for (std::size_t i = 0; i < watches_used_; ++i) watches_[i].clear();
    watches_used_ = 2 * vars + 2;
    if (watches_.size() < watches_used_) watches_.resize(watches_used_);
    lits_.clear();
    clauses_.clear();
    index_.clear();
    indexed_ = false;
    trail_.clear();
    qhead_ = 0;
    conflict_ = false;
  }

  /// Literal value under the current assignment: +1 true, -1 false,
  /// 0 unassigned.
  int value_of(std::int32_t lit) const {
    const int v = value_[static_cast<std::size_t>(std::abs(lit))];
    return lit > 0 ? v : -v;
  }

  bool conflicted() const { return conflict_; }

  /// Add a clause to the database (watched if size >= 2). `root` steps
  /// may extend the permanent root assignment. Returns false only on a
  /// malformed clause (never happens for parsed certificates).
  void add_clause(Lits lits) {
    const std::uint32_t id = static_cast<std::uint32_t>(clauses_.size());
    clauses_.push_back({static_cast<std::uint32_t>(lits_.size()),
                        static_cast<std::uint32_t>(lits.size()), 0, 0, true});
    lits_.insert(lits_.end(), lits.begin(), lits.end());
    if (indexed_) index_clause(id);
    attach(id);
  }

  /// drat-trim-style deletion. Returns: +1 deleted, 0 skipped (clause is
  /// the reason of a root assignment), -1 not found.
  int delete_clause(Lits lits) {
    if (!indexed_) {
      // The first deletion: the database is every clause added so far.
      for (std::uint32_t id = 0; id < clauses_.size(); ++id) index_clause(id);
      indexed_ = true;
    }
    const auto it = index_.find(clause_hash(lits));
    if (it == index_.end()) return -1;
    std::vector<std::uint32_t>& ids = it->second;
    // Prefer an instance that is not a root reason; if every instance is
    // a reason, skip the deletion entirely.
    bool found = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Lits c = lits_of(ids[i]);
      if (!std::equal(lits.begin(), lits.end(), c.begin(), c.end()))
        continue;  // another clause with the same hash
      found = true;
      if (is_root_reason(ids[i])) continue;
      clauses_[ids[i]].active = false;
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(i));
      return 1;
    }
    return found ? 0 : -1;
  }

  /// Assert `lit` as a permanent root fact and propagate to fixpoint.
  void assume(std::int32_t lit) {
    if (conflict_) return;
    if (!enqueue(lit, kPremise)) return;
    propagate();
  }

  /// Propagate the root state to fixpoint (call after add_clause).
  void close_root() {
    if (!conflict_) propagate();
  }

  /// RUP check of `clause`: temporarily assert the negation of every
  /// literal; propagation must derive a conflict. The root state is
  /// restored before returning (unless the root itself is conflicted,
  /// in which case everything is trivially RUP).
  bool rup(Lits clause) {
    if (conflict_) return true;
    const std::size_t mark = trail_.size();
    bool hit = false;
    for (const std::int32_t l : clause) {
      if (!enqueue(-l, kNoReason)) {
        hit = true;  // -l contradicts the current state: conflict
        break;
      }
    }
    if (!hit) hit = !propagate_temp();
    // Undo everything above the mark.
    while (trail_.size() > mark) {
      const std::int32_t l = trail_.back();
      trail_.pop_back();
      value_[static_cast<std::size_t>(std::abs(l))] = 0;
      reason_[static_cast<std::size_t>(std::abs(l))] = kNoReason;
    }
    qhead_ = mark;
    return hit;
  }

 private:
  struct Cls {
    std::uint32_t begin, size;  // literals in lits_
    // Watched literal slots (indices into the clause); meaningful only
    // when size >= 2.
    std::uint32_t w0, w1;
    bool active;
  };

  Lits lits_of(std::uint32_t id) const {
    return Lits(lits_.data() + clauses_[id].begin, clauses_[id].size);
  }

  void index_clause(std::uint32_t id) {
    index_[clause_hash(lits_of(id))].push_back(id);
  }

  bool is_root_reason(std::uint32_t id) const {
    const Lits lits = lits_of(id);
    if (lits.size() == 1)
      return value_of(lits[0]) > 0 &&
             reason_[static_cast<std::size_t>(std::abs(lits[0]))] != kNoReason;
    for (const std::int32_t l : lits)
      if (value_of(l) > 0 &&
          reason_[static_cast<std::size_t>(std::abs(l))] == id)
        return true;
    return false;
  }

  static std::size_t widx(std::int32_t lit) {
    // Watch lists are keyed by the *false* polarity of the literal.
    return 2 * static_cast<std::size_t>(std::abs(lit)) + (lit > 0 ? 0 : 1);
  }

  void attach(std::uint32_t id) {
    Cls& c = clauses_[id];
    const Lits lits = lits_of(id);
    if (c.size == 0) {
      conflict_ = true;
      return;
    }
    if (c.size == 1) {
      enqueue(lits[0], kPremise);
      return;
    }
    // Pick two non-false literals to watch when possible; a clause that
    // is already unit/conflicting under the root state is handled by
    // enqueueing / flagging here so the watch invariant stays intact.
    std::uint32_t nf0 = c.size, nf1 = c.size;
    for (std::uint32_t i = 0; i < c.size; ++i) {
      if (value_of(lits[i]) >= 0) {
        if (nf0 == c.size) {
          nf0 = i;
        } else if (nf1 == c.size) {
          nf1 = i;
          break;
        }
      }
    }
    if (nf0 == c.size) {
      conflict_ = true;  // all literals false under the root state
      return;
    }
    if (nf1 == c.size) {
      // Unit under the root state: watch arbitrarily and enqueue.
      c.w0 = nf0;
      c.w1 = (nf0 == 0) ? 1 : 0;
      watches_[widx(lits[c.w0])].push_back(id);
      watches_[widx(lits[c.w1])].push_back(id);
      enqueue(lits[nf0], id);
      return;
    }
    c.w0 = nf0;
    c.w1 = nf1;
    watches_[widx(lits[c.w0])].push_back(id);
    watches_[widx(lits[c.w1])].push_back(id);
  }

  /// Assign lit true. Returns false on contradiction (sets conflict_ for
  /// root reasons, leaves it to the caller for temporary ones).
  bool enqueue(std::int32_t lit, std::uint32_t reason) {
    const int v = value_of(lit);
    if (v > 0) return true;
    if (v < 0) {
      if (reason == kPremise) conflict_ = true;
      return false;
    }
    value_[static_cast<std::size_t>(std::abs(lit))] = lit > 0 ? 1 : -1;
    reason_[static_cast<std::size_t>(std::abs(lit))] = reason;
    trail_.push_back(lit);
    return true;
  }

  /// Propagate at root; on conflict sets conflict_ permanently.
  void propagate() {
    if (!propagate_temp()) conflict_ = true;
  }

  /// Unit propagation from qhead_. Returns false on conflict.
  bool propagate_temp() {
    while (qhead_ < trail_.size()) {
      const std::int32_t p = trail_[qhead_++];
      auto& ws = watches_[widx(-p)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const std::uint32_t id = ws[i];
        Cls& c = clauses_[id];
        if (!c.active) continue;  // lazily drop deleted clauses
        const Lits lits = lits_of(id);
        // Identify the watch slot holding -p and the other watch.
        std::uint32_t* slot = nullptr;
        std::int32_t other = 0;
        if (lits[c.w0] == -p) {
          slot = &c.w0;
          other = lits[c.w1];
        } else if (lits[c.w1] == -p) {
          slot = &c.w1;
          other = lits[c.w0];
        } else {
          ws[keep++] = id;  // stale entry from an old watch move
          continue;
        }
        if (value_of(other) > 0) {
          ws[keep++] = id;
          continue;
        }
        // Look for a replacement literal that is not false.
        bool moved = false;
        for (std::uint32_t k = 0; k < c.size; ++k) {
          if (k == c.w0 || k == c.w1) continue;
          if (value_of(lits[k]) >= 0) {
            *slot = k;
            watches_[widx(lits[k])].push_back(id);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[keep++] = id;
        if (value_of(other) < 0) {
          // Conflict: restore the remaining watchers and report.
          for (std::size_t j = i + 1; j < ws.size(); ++j)
            ws[keep++] = ws[j];
          ws.resize(keep);
          return false;
        }
        enqueue(other, id);
      }
      ws.resize(keep);
    }
    return true;
  }

  std::vector<std::int32_t> lits_;  // every clause's literals, in order
  std::vector<Cls> clauses_;
  // Clause hash -> ids of the active clauses with exactly those
  // literals, in insertion order; built at the first deletion.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
  bool indexed_ = false;
  std::vector<std::vector<std::uint32_t>> watches_;
  std::size_t watches_used_ = 0;  // lists this certificate may fill
  std::vector<std::int8_t> value_;     // by variable
  std::vector<std::uint32_t> reason_;  // by variable; root reasons only
  std::vector<std::int32_t> trail_;
  std::size_t qhead_ = 0;
  bool conflict_ = false;
};

DratChecker::DratChecker() : rup_(std::make_unique<Rup>()) {}
DratChecker::~DratChecker() = default;

DratCheckResult DratChecker::check(const DratCertificate& cert) {
  DratCheckResult res;
  Rup& rup = *rup_;
  rup.reset(cert.max_var());
  for (const Clause& c : cert.formula) rup.add_clause(c);
  for (const std::int32_t a : cert.assumptions) rup.assume(a);
  rup.close_root();

  for (std::size_t i = 0; i < cert.steps.size(); ++i) {
    const DratStep& s = cert.steps[i];
    if (s.kind == DratStep::Kind::kDelete) {
      const int r = rup.delete_clause(s.clause);
      if (r < 0) {
        res.error = str_format(
            "step %zu deletes a clause not in the database", i);
        return res;
      }
      if (r > 0) ++res.deletions_applied;
      continue;
    }
    if (!rup.rup(s.clause)) {
      res.error = str_format("step %zu is not a RUP consequence", i);
      return res;
    }
    ++res.lemmas_checked;
    if (rup.conflicted()) break;  // empty clause derived: proof complete
    rup.add_clause(s.clause);
    rup.close_root();
  }

  // The certificate must actually derive the empty clause: either the
  // root state conflicted along the way, or the (implicit) final empty
  // clause is RUP — which for an empty clause means exactly that.
  if (!rup.conflicted() && !rup.rup({})) {
    res.error = "proof does not derive the empty clause";
    return res;
  }
  res.ok = true;
  return res;
}

DratCheckResult check_drat(const DratCertificate& cert) {
  return DratChecker().check(cert);
}

}  // namespace kms::proof
