// Test helpers generated from the run's counter table
// (src/core/counters.hpp): set every counter to a distinct non-default
// value, and compare two runs' counters group by group.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/core/kms.hpp"

namespace kms::testing_counters {

/// A value for counter number `k` that differs from its rule's identity
/// (and, but for flags, from every other counter's value). Doubles carry
/// a fraction that only an exact round trip keeps.
template <class T>
void set_distinct(T* v, std::uint64_t k) {
  if constexpr (std::is_same_v<T, bool>)
    *v = !*v;
  else if constexpr (std::is_same_v<T, double>)
    *v = static_cast<double>(k) + 1.0 / 3.0;
  else if constexpr (std::is_same_v<T, std::string>)
    *v = "value-" + std::to_string(k);
  else
    *v = 1000 + k;
}

/// Every counter of the three groups set to a distinct non-default value.
inline KmsStats distinct_counters() {
  KmsStats s;
  std::uint64_t k = 0;
#define KMS_SET(member, ...) set_distinct(&counters.member, ++k);
  {
    KmsStats& counters = s;
    KMS_LOOP_COUNTERS(KMS_SET)
  }
  {
    RedundancyRemovalResult& counters = s.removal;
    KMS_REMOVAL_COUNTERS(KMS_SET)
  }
  {
    AtpgStats& counters = s.removal.atpg;
    KMS_ATPG_COUNTERS(KMS_SET)
  }
#undef KMS_SET
  return s;
}

#define KMS_EXPECT_SAME(member, ...) \
  EXPECT_EQ(got.member, want.member) << what << " " #member;

/// Every loop-group counter of `got` equals `want`'s.
inline void expect_loop_counters_equal(const KmsStats& got,
                                       const KmsStats& want,
                                       const std::string& what) {
  KMS_LOOP_COUNTERS(KMS_EXPECT_SAME)
}

/// Every counter of the group, and of the groups it nests, is equal.
inline void expect_counters_equal(const AtpgStats& got, const AtpgStats& want,
                                  const std::string& what) {
  KMS_ATPG_COUNTERS(KMS_EXPECT_SAME)
}
inline void expect_counters_equal(const RedundancyRemovalResult& got,
                                  const RedundancyRemovalResult& want,
                                  const std::string& what) {
  KMS_REMOVAL_COUNTERS(KMS_EXPECT_SAME)
  expect_counters_equal(got.atpg, want.atpg, what);
}
inline void expect_counters_equal(const KmsStats& got, const KmsStats& want,
                                  const std::string& what) {
  expect_loop_counters_equal(got, want, what);
  expect_counters_equal(got.removal, want.removal, what);
}

#undef KMS_EXPECT_SAME

}  // namespace kms::testing_counters
