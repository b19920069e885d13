// Known-good fixture for drrs-audit-hook-coverage: hooked mutations,
// mutations of unwatched containers, and documented waivers must produce
// zero diagnostics. The hook macro expands to an empty statement here (hooks
// compiled OFF), which must still count as a hook site.
#include "drrs_stub.h"

struct Simulator {};

class Channel {
 public:
  void Transmit(Simulator* sim, long element) {
    (void)sim;
    wire_.push_back(element);
    DRRS_OBSERVE(sim, OnElementPushed(&element));
  }

  void Deliver(Simulator* sim) {
    (void)sim;
    DRRS_OBSERVE(sim, OnElementDelivered(wire_.back()));
    long element = wire_.back();
    input_queue_.push_back(element);
    wire_.pop_front();
  }

  void PopInput() {
    // NOLINTNEXTLINE(drrs-audit-hook-coverage): consumption is observed at delivery, not at pop
    input_queue_.pop_front();
  }

  // Scratch state is not a watched queue; no pairing required.
  void Note(long v) { scratch_.push_back(v); }

 private:
  drrs::RingDeque<long> wire_;
  drrs::RingDeque<long> input_queue_;
  std::vector<long> scratch_;
};
