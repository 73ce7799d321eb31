#include "src/sim/simulator.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace kms {

Simulator::Simulator(const Network& net)
    : net_(net), order_(net.topo_order()), value_(net.gate_capacity(), 0) {}

void Simulator::run(const std::vector<std::uint64_t>& pi_words) {
  assert(pi_words.size() == net_.inputs().size());
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    value_[net_.inputs()[i].value()] = pi_words[i];
  for (GateId g : order_) {
    const Gate& gt = net_.gate(g);
    if (gt.kind == GateKind::kInput) continue;
    value_[g.value()] =
        eval_word(gt.kind, static_cast<std::uint32_t>(gt.fanins.size()),
                  [&](std::uint32_t k) {
                    return value_[net_.conn(gt.fanins[k]).from.value()];
                  });
  }
}

std::uint64_t Simulator::output_word(std::size_t o) const {
  return value_[net_.outputs()[o].value()];
}

namespace {

EquivResult compare_pass(Simulator& sa, Simulator& sb,
                         const std::vector<std::uint64_t>& words,
                         std::size_t vectors_in_pass) {
  sa.run(words);
  sb.run(words);
  const std::size_t n_out = sa.network().outputs().size();
  const std::uint64_t live_mask = vectors_in_pass >= 64
                                      ? ~0ull
                                      : ((1ull << vectors_in_pass) - 1);
  for (std::size_t o = 0; o < n_out; ++o) {
    const std::uint64_t diff =
        (sa.output_word(o) ^ sb.output_word(o)) & live_mask;
    if (diff == 0) continue;
    EquivResult r;
    r.equivalent = false;
    r.output_index = o;
    const int bit = std::countr_zero(diff);
    for (std::size_t i = 0; i < words.size(); ++i)
      r.counterexample.push_back((words[i] >> bit) & 1);
    return r;
  }
  return {};
}

}  // namespace

EquivResult exhaustive_equiv(const Network& a, const Network& b) {
  const std::size_t n = a.inputs().size();
  if (n != b.inputs().size() || a.outputs().size() != b.outputs().size())
    throw std::invalid_argument("exhaustive_equiv: interface mismatch");
  if (n > 24)
    throw std::invalid_argument("exhaustive_equiv: too many inputs");
  Simulator sa(a), sb(b);
  const std::uint64_t total = 1ull << n;
  std::vector<std::uint64_t> words(n, 0);
  for (std::uint64_t base = 0; base < total; base += 64) {
    const std::uint64_t in_pass = std::min<std::uint64_t>(64, total - base);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t w = 0;
      for (std::uint64_t k = 0; k < in_pass; ++k)
        if (((base + k) >> i) & 1) w |= (1ull << k);
      words[i] = w;
    }
    EquivResult r = compare_pass(sa, sb, words, in_pass);
    if (!r.equivalent) return r;
  }
  return {};
}

EquivResult random_equiv(const Network& a, const Network& b, Rng& rng,
                         std::size_t rounds) {
  const std::size_t n = a.inputs().size();
  if (n != b.inputs().size() || a.outputs().size() != b.outputs().size())
    throw std::invalid_argument("random_equiv: interface mismatch");
  Simulator sa(a), sb(b);
  std::vector<std::uint64_t> words(n);
  for (std::size_t round = 0; round < rounds; ++round) {
    for (auto& w : words) w = rng.next_u64();
    EquivResult r = compare_pass(sa, sb, words, 64);
    if (!r.equivalent) return r;
  }
  return {};
}

std::vector<bool> eval_once(const Network& net, const std::vector<bool>& pis) {
  Simulator sim(net);
  std::vector<std::uint64_t> words(pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) words[i] = pis[i] ? ~0ull : 0;
  sim.run(words);
  std::vector<bool> out(net.outputs().size());
  for (std::size_t o = 0; o < out.size(); ++o)
    out[o] = sim.output_word(o) & 1;
  return out;
}

}  // namespace kms
