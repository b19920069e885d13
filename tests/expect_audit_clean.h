#ifndef DRRS_TESTS_EXPECT_AUDIT_CLEAN_H_
#define DRRS_TESTS_EXPECT_AUDIT_CLEAN_H_

#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace drrs {

/// Asserts a run-to-completion result is clean. The order and duplicate
/// counters are checked in every build, for mechanisms that preserve
/// per-key order (Meces documents that it does not, Section II-B). In
/// DRRS_OBSERVE builds the audit must also be armed, finalized and free of
/// conservation, protocol and determinism violations.
inline void ExpectAuditClean(const harness::ExperimentResult& r,
                             bool mechanism_guarantees_order) {
  if (mechanism_guarantees_order) {
    EXPECT_EQ(r.invariants.order_violations, 0u);
    EXPECT_EQ(r.invariants.duplicate_processing, 0u);
  }
#if DRRS_OBSERVE_BUILD
  ASSERT_TRUE(r.audit.enabled);
  ASSERT_TRUE(r.audit.finalized);
#endif
  EXPECT_TRUE(r.audit.clean()) << r.audit.Summary();
}

}  // namespace drrs

#endif  // DRRS_TESTS_EXPECT_AUDIT_CLEAN_H_
