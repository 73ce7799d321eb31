// Per-process scratch paths for tests that touch the file system.
//
// `$TMPDIR/<name>.<pid>` (TMPDIR defaults to /tmp): the pid keeps two
// concurrent runs of one test binary — a parallel ctest, or the default
// and the checked build's suites on one host — out of each other's
// files.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <string>

namespace kms {

inline std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name + "." +
         std::to_string(::getpid());
}

}  // namespace kms
