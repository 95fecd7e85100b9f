#include "sim/virtual_clock.h"

namespace dsm {

void VirtualClock::AdvanceTo(VirtualNanos t) {
  if (t > now_) now_ = t;
}

}  // namespace dsm
