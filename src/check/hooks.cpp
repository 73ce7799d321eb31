#include "src/check/hooks.hpp"

#include "src/check/checker.hpp"
#include "src/netlist/network.hpp"

namespace kms {
namespace {

void self_check_trampoline(const Network& net, const char* op) {
  enforce_invariants(net, op);
}

}  // namespace

bool invariant_checks_enabled() {
#ifdef KMS_CHECK_INVARIANTS
  return true;
#else
  return false;
#endif
}

void install_invariant_self_checks() {
  if (!invariant_checks_enabled()) return;
  Network::set_self_check_hook(&self_check_trampoline);
}

void uninstall_invariant_self_checks() {
  Network::set_self_check_hook(nullptr);
}

}  // namespace kms
