#include "verify/invariants.h"

#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace drrs::verify {

namespace {

size_t SlotOf(dataflow::OperatorId op, dataflow::InstanceId sender,
              dataflow::KeyT key, size_t mask) {
  uint64_t stream = (static_cast<uint64_t>(op) << 32) | sender;
  return static_cast<size_t>(HashKey(key ^ (stream * 0x9E3779B97F4A7C15ULL))) &
         mask;
}

}  // namespace

void InvariantMonitor::CheckOrder(dataflow::OperatorId op,
                                  dataflow::InstanceId sender,
                                  dataflow::KeyT key, uint64_t seq) {
  DRRS_CHECK(seq > 0) << "unstamped record in the order check";
  size_t mask = slots_.size() - 1;
  for (size_t i = SlotOf(op, sender, key, mask);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.last == 0) {
      slot = Slot{op, sender, key, seq};
      if (2 * ++used_ > slots_.size()) Grow();
      return;
    }
    if (slot.key == key && slot.sender == sender && slot.op == op) {
      if (seq == slot.last) {
        ++duplicate_processing;
      } else if (seq < slot.last) {
        ++order_violations;
      } else {
        slot.last = seq;
      }
      return;
    }
  }
}

void InvariantMonitor::Grow() {
  std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.last == 0) continue;
    size_t i = SlotOf(s.op, s.sender, s.key, mask);
    while (slots_[i].last != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace drrs::verify
