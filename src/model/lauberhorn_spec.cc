#include "src/model/lauberhorn_spec.h"

#include <algorithm>

namespace lauberhorn {
namespace {

// Marker for a request silently dropped by a (deliberately) buggy variant;
// the conservation invariant rejects it.
constexpr uint8_t kReqLost = 9;

void Push(std::vector<ProtoChecker::Transition>& out, std::string label,
          ProtoState next) {
  out.push_back(ProtoChecker::Transition{std::move(label), next});
}

}  // namespace

ProtoState LauberhornInitialState(int num_requests) {
  ProtoState state;
  for (int i = num_requests; i < kSpecMaxRequests; ++i) {
    state.req[static_cast<size_t>(i)] = ProtoState::kResponded;
  }
  return state;
}

ProtoChecker::SuccessorFn LauberhornSuccessors(SpecConfig config) {
  return [config](const ProtoState& s, std::vector<ProtoChecker::Transition>& out) {
    // -- Packet arrival -----------------------------------------------------
    for (int i = 0; i < config.num_requests; ++i) {
      if (s.req[static_cast<size_t>(i)] != ProtoState::kNotArrived) {
        continue;
      }
      ProtoState n = s;
      if (s.nic_waiting) {
        // Hot path: fill the deferred load directly.
        n.req[static_cast<size_t>(i)] = ProtoState::kDelivered;
        n.outstanding = static_cast<int8_t>(i);
        n.outstanding_parity = s.nic_wait_parity;
        if (!config.bug_deliver_without_load) {
          n.nic_waiting = false;
        }  // bug: forgets to consume the armed load
        n.timer_armed = false;
        n.cpu = ProtoState::kCpuHasRequest;
      } else if (config.bug_drop_arrival_while_busy &&
                 s.cpu == ProtoState::kCpuHasRequest) {
        // Buggy variant: the NIC only queues when a load is armed and loses
        // packets that arrive while the handler is executing.
        n.req[static_cast<size_t>(i)] = kReqLost;
      } else {
        n.req[static_cast<size_t>(i)] = ProtoState::kInNicQueue;
      }
      Push(out, "Arrive(" + std::to_string(i) + ")", n);
    }

    // -- CPU issues the blocking load on its current CONTROL line -----------
    if (s.cpu == ProtoState::kCpuIdle) {
      ProtoState n = s;
      n.cpu = ProtoState::kCpuLoadInFlight;
      Push(out, "CpuIssueLoad(p" + std::to_string(s.cpu_parity) + ")", n);
    }

    // -- NIC observes the load ------------------------------------------------
    if (s.cpu == ProtoState::kCpuLoadInFlight) {
      ProtoState base = s;
      // A load on the other line means the previous response is ready:
      // fetch-exclusive collects and transmits it (atomic here; the fetch
      // targets the line NOT being armed, so the abstraction is sound).
      if (base.outstanding >= 0 && base.outstanding_parity != base.cpu_parity &&
          !config.bug_skip_response_collection) {
        base.req[static_cast<size_t>(base.outstanding)] = ProtoState::kResponded;
        base.outstanding = -1;
      }
      if (base.retire_requested) {
        ProtoState n = base;
        n.cpu = ProtoState::kCpuRetired;
        n.retire_requested = false;
        Push(out, "NicFillRetire", n);
      } else {
        bool delivered_any = false;
        for (int i = 0; i < config.num_requests; ++i) {
          if (base.req[static_cast<size_t>(i)] != ProtoState::kInNicQueue) {
            continue;
          }
          ProtoState n = base;
          n.req[static_cast<size_t>(i)] = ProtoState::kDelivered;
          n.outstanding = static_cast<int8_t>(i);
          n.outstanding_parity = s.cpu_parity;
          n.cpu = ProtoState::kCpuHasRequest;
          Push(out, "NicDeliverQueued(" + std::to_string(i) + ")", n);
          delivered_any = true;
        }
        if (!delivered_any) {
          ProtoState n = base;
          n.cpu = ProtoState::kCpuLoadWaiting;
          n.nic_waiting = true;
          n.nic_wait_parity = s.cpu_parity;
          n.timer_armed = true;
          Push(out, "NicDeferFill", n);
        }
      }
    }

    // -- TRYAGAIN deadline -----------------------------------------------------
    if (s.nic_waiting && s.timer_armed) {
      ProtoState n = s;
      n.nic_waiting = false;
      n.timer_armed = false;
      n.cpu = ProtoState::kCpuIdle;  // the loop re-issues the load (§5.1)
      Push(out, "TryAgainFires", n);
    }

    // -- Handler runs; response written; CPU turns to the other line ---------
    if (s.cpu == ProtoState::kCpuHasRequest) {
      ProtoState n = s;
      n.cpu = ProtoState::kCpuIdle;
      n.cpu_parity ^= 1;
      Push(out, "CpuHandleAndFlip", n);
    }

    // -- OS asks for the core back (§5.2) -------------------------------------
    if (config.model_retire && !s.retire_requested &&
        s.cpu != ProtoState::kCpuRetired) {
      if (s.nic_waiting) {
        // Immediate RETIRE of the armed load.
        ProtoState n = s;
        n.cpu = ProtoState::kCpuRetired;
        n.nic_waiting = false;
        n.timer_armed = false;
        Push(out, "RetireImmediate", n);
      } else {
        ProtoState n = s;
        n.retire_requested = true;
        Push(out, "RetireRequest", n);
      }
    }

    // -- Cold-path rescue: after retirement the kernel channel handles what
    //    remains queued (HandBack in the implementation) ---------------------
    if (s.cpu == ProtoState::kCpuRetired) {
      for (int i = 0; i < config.num_requests; ++i) {
        if (s.req[static_cast<size_t>(i)] == ProtoState::kInNicQueue) {
          ProtoState n = s;
          n.req[static_cast<size_t>(i)] = ProtoState::kResponded;
          Push(out, "ColdRescue(" + std::to_string(i) + ")", n);
        }
      }
    }
  };
}

std::vector<ProtoChecker::NamedInvariant> LauberhornInvariants() {
  std::vector<ProtoChecker::NamedInvariant> invariants;
  invariants.push_back({"SingleDelivery", [](const ProtoState& s) {
    int delivered = 0;
    for (uint8_t r : s.req) {
      delivered += r == ProtoState::kDelivered ? 1 : 0;
    }
    if (delivered > 1) {
      return false;
    }
    if (delivered == 1 && s.outstanding < 0) {
      return false;
    }
    return true;
  }});
  invariants.push_back({"WaitingConsistent", [](const ProtoState& s) {
    return s.nic_waiting == (s.cpu == ProtoState::kCpuLoadWaiting);
  }});
  invariants.push_back({"TimerImpliesWaiting", [](const ProtoState& s) {
    return !s.timer_armed || s.nic_waiting;
  }});
  invariants.push_back({"NoLostRequests", [](const ProtoState& s) {
    for (uint8_t r : s.req) {
      if (r == kReqLost) {
        return false;
      }
    }
    return true;
  }});
  invariants.push_back({"OutstandingValid", [](const ProtoState& s) {
    if (s.outstanding < 0) {
      return true;
    }
    return s.req[static_cast<size_t>(s.outstanding)] == ProtoState::kDelivered;
  }});
  invariants.push_back({"HasRequestImpliesOutstanding", [](const ProtoState& s) {
    if (s.cpu != ProtoState::kCpuHasRequest) {
      return true;
    }
    return s.outstanding >= 0 && s.outstanding_parity == s.cpu_parity;
  }});
  return invariants;
}

bool LauberhornTerminalOk(const ProtoState& state) {
  for (uint8_t r : state.req) {
    if (r != ProtoState::kResponded) {
      return false;
    }
  }
  return state.cpu == ProtoState::kCpuRetired;
}

bool LauberhornGoal(const ProtoState& state) {
  for (uint8_t r : state.req) {
    if (r != ProtoState::kResponded) {
      return false;
    }
  }
  return true;
}

}  // namespace lauberhorn
