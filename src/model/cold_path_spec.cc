#include "src/model/cold_path_spec.h"

#include <string>

namespace lauberhorn {
namespace {

void Push(std::vector<ColdChecker::Transition>& out, std::string label, ColdState next) {
  out.push_back(ColdChecker::Transition{std::move(label), next});
}

bool AnyQueued(const ColdState& s, int n) {
  for (int i = 0; i < n; ++i) {
    if (s.req[static_cast<size_t>(i)] == ColdState::kQueued) {
      return true;
    }
  }
  return false;
}

}  // namespace

ColdState ColdPathInitialState(int num_requests) {
  ColdState state;
  for (int i = num_requests; i < kColdSpecMaxRequests; ++i) {
    state.req[static_cast<size_t>(i)] = ColdState::kResponded;
  }
  return state;
}

ColdChecker::SuccessorFn ColdPathSuccessors(ColdSpecConfig config) {
  return [config](const ColdState& s, std::vector<ColdChecker::Transition>& out) {
    // -- Packet arrival: queue at the NIC, signal the OS if needed ------------
    for (int i = 0; i < config.num_requests; ++i) {
      if (s.req[static_cast<size_t>(i)] != ColdState::kNotArrived) {
        continue;
      }
      ColdState n = s;
      n.req[static_cast<size_t>(i)] = ColdState::kQueued;
      if (s.dispatcher != ColdState::kParked) {
        // A parked dispatcher needs no signal: the queued request is
        // delivered straight to its armed load.
        n.wake_pending = true;
      }
      Push(out, "Arrive(" + std::to_string(i) + ")", n);
    }

    // -- Wakeup delivery: IRQ -> scheduler -> dispatcher runs -----------------
    if (s.wake_pending && s.dispatcher == ColdState::kIdle) {
      ColdState n = s;
      n.wake_pending = false;
      n.dispatcher = ColdState::kWaking;
      Push(out, "WakeupDelivered", n);
    }

    // -- Dispatcher parks on its kernel channel -------------------------------
    if (s.dispatcher == ColdState::kWaking) {
      ColdState n = s;
      n.dispatcher = ColdState::kParked;
      Push(out, "DispatcherParks", n);
    }

    // -- NIC fills the parked load with a queued request ----------------------
    if (s.dispatcher == ColdState::kParked) {
      for (int i = 0; i < config.num_requests; ++i) {
        if (s.req[static_cast<size_t>(i)] != ColdState::kQueued) {
          continue;
        }
        ColdState n = s;
        n.req[static_cast<size_t>(i)] = ColdState::kHandling;
        n.dispatcher = ColdState::kHandling_;
        Push(out, "NicDeliver(" + std::to_string(i) + ")", n);
      }
      // Kernel-channel TRYAGAIN: the dispatcher yields when nothing arrives.
      // In the buggy variant the deadline races a delivery and the parked
      // load is answered with TRYAGAIN despite queued work, with no
      // re-signal.
      if (!AnyQueued(s, config.num_requests)) {
        ColdState n = s;
        n.dispatcher = ColdState::kIdle;
        Push(out, "KernelTryAgain", n);
      } else if (config.bug_tryagain_misses_queue) {
        ColdState n = s;
        n.dispatcher = ColdState::kIdle;
        Push(out, "BuggyTryAgainWithQueue", n);
      }
    }

    // -- Handler completes; response transmitted ------------------------------
    if (s.dispatcher == ColdState::kHandling_) {
      for (int i = 0; i < config.num_requests; ++i) {
        if (s.req[static_cast<size_t>(i)] != ColdState::kHandling) {
          continue;
        }
        ColdState n = s;
        n.req[static_cast<size_t>(i)] = ColdState::kResponded;
        n.dispatcher = ColdState::kIdle;
        if (!config.bug_no_rearm_after_handle && AnyQueued(n, config.num_requests)) {
          // SoftwareTransmit re-signals while cold work remains queued.
          n.wake_pending = true;
        }
        Push(out, "HandleDone(" + std::to_string(i) + ")", n);
      }
    }
  };
}

std::vector<ColdChecker::NamedInvariant> ColdPathInvariants() {
  std::vector<ColdChecker::NamedInvariant> invariants;
  invariants.push_back({"SingleHandling", [](const ColdState& s) {
    int handling = 0;
    for (uint8_t r : s.req) {
      handling += r == ColdState::kHandling ? 1 : 0;
    }
    if (handling > 1) {
      return false;
    }
    if (handling == 1 && s.dispatcher != ColdState::kHandling_) {
      return false;
    }
    return true;
  }});
  invariants.push_back({"HandlingImpliesRequest", [](const ColdState& s) {
    if (s.dispatcher != ColdState::kHandling_) {
      return true;
    }
    for (uint8_t r : s.req) {
      if (r == ColdState::kHandling) {
        return true;
      }
    }
    return false;
  }});
  return invariants;
}

bool ColdPathTerminalOk(const ColdState& state) {
  for (uint8_t r : state.req) {
    if (r != ColdState::kResponded) {
      return false;
    }
  }
  return state.dispatcher == ColdState::kIdle && !state.wake_pending;
}

bool ColdPathGoal(const ColdState& state) {
  for (uint8_t r : state.req) {
    if (r != ColdState::kResponded) {
      return false;
    }
  }
  return true;
}

}  // namespace lauberhorn
