#include "src/nic/shadow.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/nic/lauberhorn_nic.h"

namespace lauberhorn {

void NicShadow::RecordVf(uint32_t vf, const LauberhornNic::VfConfig& config) {
  ++writes_;
  for (auto& entry : vfs_) {
    if (entry.first == vf) {
      entry.second = config;
      return;
    }
  }
  vfs_.emplace_back(vf, config);
}

void NicShadow::RecordEndpoint(const EndpointRecord& record) {
  ++writes_;
  endpoints_.push_back(record);
}

void NicShadow::RecordKernelChannel(uint32_t id) {
  ++writes_;
  kernel_channels_.push_back(id);
}

void NicShadow::RecordContinuationAllocated(uint32_t id) {
  ++writes_;
  continuations_.push_back(id);
}

void NicShadow::RecordContinuationFreed(uint32_t id) {
  ++writes_;
  continuations_.erase(
      std::remove(continuations_.begin(), continuations_.end(), id),
      continuations_.end());
}

void NicShadow::RecordAdmission(const AdmissionConfig& admission) {
  ++writes_;
  admission_ = admission;
  admission_recorded_ = true;
}

NicShadow::ReplayCounts NicShadow::ReplayInto(LauberhornNic& nic) {
  ReplayCounts counts;
  if (admission_recorded_) {
    nic.RestoreAdmission(admission_);
  }
  // VF partitions first: restored endpoints assert their owning VF exists.
  for (const auto& [vf, config] : vfs_) {
    nic.RestoreVf(vf, config);
    ++counts.vfs;
  }
  for (uint32_t id : kernel_channels_) {
    nic.RestoreKernelChannel(id);
    ++counts.kernel_channels;
  }
  for (const EndpointRecord& record : endpoints_) {
    nic.RestoreEndpoint(record.id, record.service_id, record.pid,
                        record.code_ptr, record.data_ptr,
                        record.dma_buffer_iova, record.vf);
    ++counts.endpoints;
  }
  for (uint32_t id : continuations_) {
    nic.RestoreContinuation(id);
    ++counts.continuations;
  }
  counts.dedup = nic.dedup().ApplyNicReset();
  return counts;
}

NicRecoveryManager::NicRecoveryManager(Simulator& sim, LauberhornNic& nic,
                                       NicShadow& shadow, FaultInjector* faults,
                                       Config config)
    : sim_(sim), nic_(nic), shadow_(shadow), faults_(faults), config_(config) {
  sim_.Schedule(config_.heartbeat_period, [this]() { Tick(); });
}

void NicRecoveryManager::Tick() {
  sim_.Schedule(config_.heartbeat_period, [this]() { Tick(); });
  if (recovering_) {
    return;  // reset already in progress; beats resume after replay
  }
  ++stats_.heartbeats;
  const uint64_t crashed_polls = nic_.stats().crashed_polls;
  const uint64_t poll_burst = crashed_polls - crashed_polls_at_last_beat_;
  crashed_polls_at_last_beat_ = crashed_polls;
  if (nic_.HeartbeatProbe()) {
    misses_ = 0;
    return;
  }
  if (misses_ == 0) {
    detected_at_ = sim_.Now();
  }
  ++misses_;
  if (misses_ >= config_.miss_threshold ||
      poll_burst >= config_.wedged_poll_threshold) {
    BeginRecovery();
  }
}

void NicRecoveryManager::BeginRecovery() {
  recovering_ = true;
  misses_ = 0;
  ++stats_.watchdog_fires;
  if (on_recovery_begin) {
    on_recovery_begin();
  }
  const Duration reset_latency =
      faults_ != nullptr && faults_->plan().nic_crash.Any()
          ? faults_->plan().nic_crash.reset_latency
          : config_.default_reset_latency;
  sim_.Schedule(reset_latency, [this]() { FinishRecovery(); });
}

void NicRecoveryManager::FinishRecovery() {
  // Clear the fault *before* the device comes back: the lazy crash check must
  // not re-kill the reborn NIC for the instant we just recovered from.
  if (faults_ != nullptr) {
    faults_->NicDeviceRecovered();
  }
  nic_.CompleteReset();
  const NicShadow::ReplayCounts counts = shadow_.ReplayInto(nic_);
  stats_.replayed_vfs += counts.vfs;
  stats_.replayed_endpoints += counts.endpoints;
  stats_.replayed_kernel_channels += counts.kernel_channels;
  stats_.replayed_continuations += counts.continuations;
  stats_.replayed_dedup_completed += counts.dedup.completed;
  stats_.replayed_dedup_in_flight += counts.dedup.pinned;
  stats_.dropped_undelivered += counts.dedup.dropped;
  ++stats_.recoveries;
  stats_.last_blackout = sim_.Now() - detected_at_;
  stats_.total_blackout += stats_.last_blackout;
  recovering_ = false;
  crashed_polls_at_last_beat_ = nic_.stats().crashed_polls;
  if (on_recovery_end) {
    on_recovery_end();
  }
}

}  // namespace lauberhorn
