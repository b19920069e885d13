// Known-bad fixture for drrs-audit-hook-coverage: mutations of the audited
// delivery queues with no DRRS_OBSERVE hook within the pairing window
// (8 lines).
#include "drrs_stub.h"

struct Simulator {};

class Channel {
 public:
  void Transmit(long element) {
    wire_.push_back(element);  // EXPECT: drrs-audit-hook-coverage
  }

  void DropHead() {
    wire_.pop_front();  // EXPECT: drrs-audit-hook-coverage
  }

  void AcceptRemote(long element) {
    remote_in_.push_back(element);  // EXPECT: drrs-audit-hook-coverage
  }

  // A hook that is too far away does not pair: the mutation below sits more
  // than 8 lines after the expansion.
  void FlushWithDistantHook(Simulator* sim) {
    DRRS_OBSERVE(sim, OnElementPushed(nullptr));
    long a = 0;
    long b = a + 1;
    long c = b + 1;
    long d = c + 1;
    long e = d + 1;
    long f = e + 1;
    long g = f + 1;
    (void)g;
    wire_.clear();  // EXPECT: drrs-audit-hook-coverage
  }

 private:
  drrs::RingDeque<long> wire_;
  drrs::RingDeque<long> remote_in_;
};
