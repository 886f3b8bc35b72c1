#include "sim/simulator.h"

namespace afraid {

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_.Empty()) {
    if (queue_.NextTime() > deadline) {
      break;
    }
    ++events_processed_;
    queue_.FireNext(&now_);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void Simulator::RunToEnd() {
  while (Step()) {
  }
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  ++events_processed_;
  queue_.FireNext(&now_);
  return true;
}

}  // namespace afraid
