// OS-shadowed NIC state + watchdog-driven hot recovery (DESIGN.md §16).
//
// The paper's claim is that NIC state (endpoint tables, protocol state,
// scheduling policy) *is* OS state — so when the NIC itself dies, the OS is
// the recovery authority, not device firmware. Two pieces implement that:
//
//  * NicShadow — the host's authoritative, write-through copy of everything
//    the NIC holds that cannot be regenerated from a packet: the endpoint
//    table (service bindings, code/data pointers, DMA buffer IOVAs), kernel
//    channel and continuation allocations, and the admission config pushed
//    into the device. Every control-plane mutation mirrors here
//    synchronously (the host originated the write — one store). The
//    at-most-once dedup table is not copied at all: it already lives in host
//    memory (the NIC works on it by reference), so it survives the crash.
//
//  * NicRecoveryManager — the host-side watchdog. It heartbeats the device;
//    consecutive missed heartbeats (or a burst of wedged polls) trigger a
//    reset: hold the device in reset for the configured latency, replay the
//    shadow into the reborn NIC, re-arm grants at the unscheduled window so
//    stale credits cannot over-admit, and let the client retransmit + dedup
//    path carry the blackout so at-most-once holds end to end.
//
// Replay applies the dedup table's reset rules in place
// (RpcDedupCache::ApplyNicReset): completed entries keep replaying their
// response, undelivered in-flight entries are dropped (a retransmit executes
// fresh), and delivered ones stay pinned in flight — their response died with
// the NIC, so the client times out rather than the handler running twice.
#ifndef SRC_NIC_SHADOW_H_
#define SRC_NIC_SHADOW_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/nic/lauberhorn_nic.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/proto/dedup.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace lauberhorn {

class FaultInjector;

class NicShadow {
 public:
  struct EndpointRecord {
    uint32_t id = 0;
    uint32_t service_id = 0;
    Pid pid = kNoPid;
    uint64_t code_ptr = 0;
    uint64_t data_ptr = 0;
    uint64_t dma_buffer_iova = 0;
    uint32_t vf = 0;
  };

  struct ReplayCounts {
    uint64_t vfs = 0;
    uint64_t endpoints = 0;
    uint64_t kernel_channels = 0;
    uint64_t continuations = 0;
    RpcDedupCache::ResetCounts dedup;
  };

  // --- write-through mirror (called by the NIC / control plane) ---
  void RecordVf(uint32_t vf, const LauberhornNic::VfConfig& config);
  void RecordEndpoint(const EndpointRecord& record);
  void RecordKernelChannel(uint32_t id);
  void RecordContinuationAllocated(uint32_t id);
  void RecordContinuationFreed(uint32_t id);
  void RecordAdmission(const AdmissionConfig& admission);

  // Replays the full shadow into a reborn (post-reset) NIC and applies the
  // reset rules to its dedup table in place.
  ReplayCounts ReplayInto(LauberhornNic& nic);

  size_t vf_count() const { return vfs_.size(); }
  size_t endpoint_count() const { return endpoints_.size(); }
  size_t kernel_channel_count() const { return kernel_channels_.size(); }
  size_t continuation_count() const { return continuations_.size(); }
  uint64_t writes() const { return writes_; }

 private:
  // VF partitions in creation order; replayed before endpoints so that
  // restored endpoints find their owning VF slice already present.
  std::vector<std::pair<uint32_t, LauberhornNic::VfConfig>> vfs_;
  std::vector<EndpointRecord> endpoints_;  // in allocation order
  std::vector<uint32_t> kernel_channels_;  // in allocation order
  std::vector<uint32_t> continuations_;    // currently allocated
  AdmissionConfig admission_;
  bool admission_recorded_ = false;
  uint64_t writes_ = 0;  // control-plane mutations mirrored
};

// Host-side watchdog: heartbeats the NIC, declares it dead after
// `miss_threshold` consecutive missed beats (or a `wedged_poll_threshold`
// burst of polls answered by a dead device between two beats), then drives
// reset + shadow replay. The reset latency comes from the fault plan (it is
// a property of the injected crash), falling back to `default_reset_latency`
// when no injector is wired.
class NicRecoveryManager {
 public:
  struct Config {
    Duration heartbeat_period = Microseconds(20);
    int miss_threshold = 2;
    uint64_t wedged_poll_threshold = 16;
    Duration default_reset_latency = Microseconds(50);
  };

  struct Stats {
    uint64_t heartbeats = 0;
    uint64_t watchdog_fires = 0;  // recoveries started
    uint64_t recoveries = 0;      // recoveries completed
    uint64_t replayed_vfs = 0;
    uint64_t replayed_endpoints = 0;
    uint64_t replayed_kernel_channels = 0;
    uint64_t replayed_continuations = 0;
    uint64_t replayed_dedup_completed = 0;
    uint64_t replayed_dedup_in_flight = 0;
    uint64_t dropped_undelivered = 0;
    Duration last_blackout = 0;   // crash detection -> replay done
    Duration total_blackout = 0;
  };

  NicRecoveryManager(Simulator& sim, LauberhornNic& nic, NicShadow& shadow,
                     FaultInjector* faults, Config config);
  NicRecoveryManager(const NicRecoveryManager&) = delete;
  NicRecoveryManager& operator=(const NicRecoveryManager&) = delete;

  // Published during recovery so a cluster directory can mark this machine
  // kDegraded (divert new work) instead of kDown (churn the hash ring).
  Callback on_recovery_begin;
  Callback on_recovery_end;

  const Stats& stats() const { return stats_; }
  bool recovering() const { return recovering_; }

 private:
  void Tick();
  void BeginRecovery();
  void FinishRecovery();

  Simulator& sim_;
  LauberhornNic& nic_;
  NicShadow& shadow_;
  FaultInjector* faults_;
  Config config_;
  Stats stats_;
  int misses_ = 0;
  uint64_t crashed_polls_at_last_beat_ = 0;
  bool recovering_ = false;
  SimTime detected_at_ = 0;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_SHADOW_H_
