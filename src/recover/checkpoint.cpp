#include "src/recover/checkpoint.hpp"

#include <stdexcept>

#include "src/recover/fields.hpp"

namespace kms::recover {
namespace {

void bind(FieldTable& t, Checkpoint& c) {
  t.field("phase", &c.phase);
  t.field("cursor", &c.cursor);
  t.field("steps", &c.steps);
  t.field("drat-certs", &c.drat_certs);
  t.hex("net-digest", &c.net_digest);
  t.field("rng", &c.rng_state);
  // Every counter of the three groups, keyed <group>.<member>.
#define KMS_BIND(member, ...) t.field(group + #member, &counters.member);
  {
    const std::string group = "kms.";
    KmsStats& counters = c.stats;
    KMS_LOOP_COUNTERS(KMS_BIND)
  }
  {
    const std::string group = "rm.";
    RedundancyRemovalResult& counters = c.stats.removal;
    KMS_REMOVAL_COUNTERS(KMS_BIND)
  }
  {
    const std::string group = "atpg.";
    AtpgStats& counters = c.stats.removal.atpg;
    KMS_ATPG_COUNTERS(KMS_BIND)
  }
#undef KMS_BIND
}

}  // namespace

std::string write_checkpoint(const Checkpoint& c) {
  FieldTable t("checkpoint");
  bind(t, const_cast<Checkpoint&>(c));
  return t.write();
}

Checkpoint read_checkpoint(const std::string& text) {
  Checkpoint c;
  FieldTable t("checkpoint");
  bind(t, c);
  t.read(text);
  if (c.phase != "loop" && c.phase != "removal")
    throw std::runtime_error("checkpoint: unknown phase '" + c.phase + "'");
  return c;
}

}  // namespace kms::recover
