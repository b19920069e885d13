#ifndef DRRS_VERIFY_INVARIANTS_H_
#define DRRS_VERIFY_INVARIANTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataflow/stream_element.h"

namespace drrs::verify {

/// \brief Order/exactly-once invariant violations observed by tasks.
///
/// Unbound (the correctness-free design probe, Section II-B) is *expected* to
/// accumulate state misses; every real strategy must keep all counters at
/// zero — that is asserted by the property tests.
struct InvariantCounts {
  uint64_t order_violations = 0;       ///< per-(sender,key) seq inversions
  uint64_t state_miss_processing = 0;  ///< record processed w/o local state
  uint64_t duplicate_processing = 0;   ///< same record processed twice

  bool Clean() const {
    return order_violations == 0 && state_miss_processing == 0 &&
           duplicate_processing == 0;
  }
};

/// \brief The one per-key FIFO / duplicate checker, in every build: keeps
/// the last seq seen on every stream. Tasks feed it every stamped record
/// they process. Results copy only counts(), never the table.
class InvariantMonitor : public InvariantCounts {
 public:
  const InvariantCounts& counts() const { return *this; }

  /// Verify the per-(consumer op, sender instance, key) sequence number is
  /// strictly increasing; bumps the violation counters otherwise. `seq` must
  /// be positive: 0 means "not stamped" and marks an empty table slot.
  void CheckOrder(dataflow::OperatorId op, dataflow::InstanceId sender,
                  dataflow::KeyT key, uint64_t seq);

 private:
  /// Last seq seen on one (consumer op, sender, key) stream; `last == 0`
  /// marks an empty slot.
  struct Slot {
    dataflow::OperatorId op = 0;
    dataflow::InstanceId sender = 0;
    dataflow::KeyT key = 0;
    uint64_t last = 0;
  };
  static constexpr size_t kInitialSlots = 64;

  void Grow();

  /// Open addressing with linear probing: power-of-two size, at most half
  /// full. Streams are never erased, so there are no tombstones.
  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  size_t used_ = 0;
};

}  // namespace drrs::verify

#endif  // DRRS_VERIFY_INVARIANTS_H_
