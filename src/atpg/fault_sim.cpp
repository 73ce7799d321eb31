#include "src/atpg/fault_sim.hpp"

#include <algorithm>
#include <cassert>

namespace kms {

FaultSimulator::FaultSimulator(const Network& net) : net_(net) { reset(); }

void FaultSimulator::reset() {
  // assign() and clear() keep each buffer's capacity: a simulator reset
  // once per removal pass allocates only when the network has grown.
  const Network& net = net_;
  const std::uint32_t cap = net.gate_capacity();
  kind_.assign(cap, GateKind::kInput);
  fanin_begin_.assign(cap + 1, 0);
  fanout_begin_.assign(cap + 1, 0);
  level_.assign(cap, 0);
  is_output_.assign(cap, 0);
  good_.assign(cap, 0);
  faulty_.assign(cap, 0);
  stamp_.assign(cap, 0);
  queued_.assign(cap, 0);
  fanin_src_.clear();
  fanin_conn_.clear();
  fanout_sink_.clear();
  eval_order_.clear();
  stored_count_ = 0;
  current_stamp_ = 0;
  top_level_ = 0;
  // CSR ranges are laid out in gate-id order; dead gates get empty ones.
  for (std::uint32_t g = 0; g < cap; ++g) {
    fanin_begin_[g] = static_cast<std::uint32_t>(fanin_src_.size());
    fanout_begin_[g] = static_cast<std::uint32_t>(fanout_sink_.size());
    const Gate& gt = net.gate(GateId{g});
    if (gt.dead) continue;
    kind_[g] = gt.kind;
    for (ConnId c : gt.fanins) {
      fanin_src_.push_back(net.conn(c).from.value());
      fanin_conn_.push_back(c);
    }
    for (ConnId c : gt.fanouts) fanout_sink_.push_back(net.conn(c).to.value());
  }
  fanin_begin_[cap] = static_cast<std::uint32_t>(fanin_src_.size());
  fanout_begin_[cap] = static_cast<std::uint32_t>(fanout_sink_.size());
  // A gate's level exceeds every fanin's, so sweeping levels in
  // increasing order evaluates each gate after all of its fanins.
  std::uint32_t max_level = 0;
  for (GateId id : net.topo_order()) {
    const std::uint32_t g = id.value();
    std::uint32_t lvl = 0;
    for (std::uint32_t k = fanin_begin_[g]; k < fanin_begin_[g + 1]; ++k)
      lvl = std::max(lvl, level_[fanin_src_[k]] + 1);
    level_[g] = lvl;
    max_level = std::max(max_level, lvl);
    if (kind_[g] != GateKind::kInput) eval_order_.push_back(g);
  }
  buckets_.resize(max_level + 1);
  for (GateId o : net.outputs()) is_output_[o.value()] = 1;
}

void FaultSimulator::schedule(std::uint32_t g) {
  if (queued_[g] == current_stamp_) return;
  queued_[g] = current_stamp_;
  buckets_[level_[g]].push_back(g);
  top_level_ = std::max(top_level_, level_[g]);
}

std::uint64_t FaultSimulator::propagate(const Fault& f,
                                        const std::uint64_t* good) {
  ++current_stamp_;
  top_level_ = 0;
  const std::uint64_t stuck_word = f.stuck ? ~0ull : 0;
  std::uint64_t detect = 0;
  // Record a faulty value that differs from the good one and wake the
  // gate's fanout.
  auto mark = [&](std::uint32_t g, std::uint64_t w) {
    faulty_[g] = w;
    stamp_[g] = current_stamp_;
    if (is_output_[g]) detect |= w ^ good[g];
    for (std::uint32_t k = fanout_begin_[g]; k < fanout_begin_[g + 1]; ++k)
      schedule(fanout_sink_[k]);
  };
  std::uint32_t first_level;
  if (f.site == Fault::Site::kStem) {
    const std::uint32_t site = f.gate.value();
    if (stuck_word == good[site]) return 0;  // never excited
    mark(site, stuck_word);
    first_level = level_[site] + 1;
  } else {
    const std::uint32_t sink = net_.conn(f.conn).to.value();
    schedule(sink);
    first_level = level_[sink];
  }
  const ConnId branch =
      f.site == Fault::Site::kBranch ? f.conn : ConnId::invalid();
  for (std::uint32_t lvl = first_level; lvl <= top_level_; ++lvl) {
    std::vector<std::uint32_t>& bucket = buckets_[lvl];
    // Gates of this level only wake gates of higher levels, so the
    // bucket does not grow while it is swept.
    for (const std::uint32_t g : bucket) {
      const std::uint32_t base = fanin_begin_[g];
      const std::uint64_t w = eval_word(
          kind_[g], fanin_begin_[g + 1] - base, [&](std::uint32_t k) {
            if (fanin_conn_[base + k] == branch) return stuck_word;
            const std::uint32_t src = fanin_src_[base + k];
            return stamp_[src] == current_stamp_ ? faulty_[src] : good[src];
          });
      if (w != good[g]) mark(g, w);
    }
    bucket.clear();
  }
  return detect;
}

void FaultSimulator::simulate_good(
    const std::vector<std::uint64_t>& pi_words, std::uint64_t* good) {
  assert(pi_words.size() == net_.inputs().size());
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    good[net_.inputs()[i].value()] = pi_words[i];
  for (const std::uint32_t g : eval_order_) {
    const std::uint32_t base = fanin_begin_[g];
    good[g] = eval_word(kind_[g], fanin_begin_[g + 1] - base,
                        [&](std::uint32_t k) {
                          return good[fanin_src_[base + k]];
                        });
  }
}

std::vector<std::uint64_t> FaultSimulator::detect_words(
    const std::vector<Fault>& faults,
    const std::vector<std::uint64_t>& pi_words) {
  simulate_good(pi_words, good_.data());
  std::vector<std::uint64_t> result;
  result.reserve(faults.size());
  for (const Fault& f : faults) result.push_back(propagate(f, good_.data()));
  return result;
}

std::size_t FaultSimulator::store_words(
    const std::vector<std::uint64_t>& pi_words) {
  // simulate_good writes every live gate, and propagate reads no other,
  // so storage kept from before a reset needs no clearing.
  const std::size_t cap = good_.size();
  if (stored_.size() < (stored_count_ + 1) * cap)
    stored_.resize((stored_count_ + 1) * cap);
  simulate_good(pi_words, stored_.data() + stored_count_ * cap);
  return stored_count_++;
}

std::uint64_t FaultSimulator::detect_stored(const Fault& f, std::size_t w) {
  assert(w < stored_count_);
  return propagate(f, stored_.data() + w * good_.size());
}

std::uint64_t FaultSimulator::detect_new(
    const std::vector<Fault>& faults,
    const std::vector<std::uint64_t>& pi_words, std::vector<bool>& detected,
    std::uint64_t patterns) {
  assert(detected.size() == faults.size());
  // Nothing left to detect: skip the good-circuit pass too.
  if (std::find(detected.begin(), detected.end(), false) == detected.end())
    return 0;
  simulate_good(pi_words, good_.data());
  std::uint64_t first = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    const std::uint64_t m = propagate(faults[i], good_.data()) & patterns;
    if (m == 0) continue;
    detected[i] = true;
    first |= m & (~m + 1);
  }
  return first;
}

bool FaultSimulator::detect_tests(const std::vector<Fault>& faults,
                                  const std::vector<std::vector<bool>>& tests,
                                  std::vector<bool>& detected) {
  const std::size_t n = net_.inputs().size();
  bool any = false;
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t in_pass = std::min<std::size_t>(64, tests.size() - base);
    std::vector<std::uint64_t> pi(n, 0);
    for (std::size_t k = 0; k < in_pass; ++k)
      for (std::size_t i = 0; i < n; ++i)
        if (tests[base + k][i]) pi[i] |= 1ull << k;
    const std::uint64_t live =
        in_pass >= 64 ? ~0ull : ((1ull << in_pass) - 1);
    if (detect_new(faults, pi, detected, live) != 0) any = true;
  }
  return any;
}

std::vector<std::uint64_t> witness_words(const std::vector<bool>& vector,
                                         Rng& rng) {
  std::vector<std::uint64_t> pi(vector.size());
  for (std::size_t i = 0; i < vector.size(); ++i) {
    const std::uint64_t base = vector[i] ? ~0ull : 0ull;
    // Flip each of patterns 1..63 with probability 1/8 (AND of three
    // uniform words); pattern 0 keeps the exact witness.
    const std::uint64_t flips =
        rng.next_u64() & rng.next_u64() & rng.next_u64() & ~1ull;
    pi[i] = base ^ flips;
  }
  return pi;
}

double fault_coverage(const Network& net, const std::vector<Fault>& faults,
                      const std::vector<std::vector<bool>>& tests) {
  if (faults.empty()) return 1.0;
  std::vector<bool> detected(faults.size(), false);
  FaultSimulator(net).detect_tests(faults, tests, detected);
  return static_cast<double>(
             std::count(detected.begin(), detected.end(), true)) /
         static_cast<double>(faults.size());
}

}  // namespace kms
