// Tests for NIC hot recovery (DESIGN.md §16): the whole-NIC crash fault
// layer, the OS-side write-through NicShadow and its dedup replay rules, the
// watchdog-driven reset path end to end, and the cluster directory's
// kDegraded publication during recovery. Also the PR's satellite coverage:
// exported CC fault counters, dedup replay across an OS crash window, and
// the FaultInjector periodic-crash arithmetic.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/cluster/directory.h"
#include "src/core/machine.h"
#include "src/fault/fault.h"
#include "src/nic/shadow.h"
#include "src/sim/simulator.h"
#include "src/stats/metrics.h"

namespace lauberhorn {
namespace {

// --- FaultInjector crash-schedule arithmetic ---------------------------------

TEST(FaultInjectorTest, NicCrashPersistsUntilHostRecovery) {
  Simulator sim;
  FaultPlan plan;
  plan.nic_crash.first_crash_at = Milliseconds(1);
  plan.nic_crash.crash_period = Milliseconds(2);
  FaultInjector faults(sim, plan);

  auto crashed_at = [&](Duration t) {
    bool crashed = false;
    sim.Schedule(t - sim.Now(),
                 [&faults, &crashed]() { crashed = faults.NicDeviceCrashed(); });
    sim.RunUntilIdle();
    return crashed;
  };
  EXPECT_FALSE(crashed_at(Microseconds(500)));  // before the first crash
  EXPECT_TRUE(crashed_at(Microseconds(1100)));  // crash instant 1 passed
  // Unlike an OS crash window, the outage does NOT end on its own — the
  // device stays dead arbitrarily long until the host recovers it.
  EXPECT_TRUE(crashed_at(Microseconds(2900)));
  EXPECT_EQ(faults.stats().nic_crashes, 1u);  // one distinct instant so far

  sim.Schedule(Microseconds(50), [&faults]() { faults.NicDeviceRecovered(); });
  sim.RunUntilIdle();
  EXPECT_FALSE(crashed_at(Microseconds(2960)));  // recovered, next instant 3ms
  EXPECT_TRUE(crashed_at(Microseconds(3200)));   // periodic re-fire
  EXPECT_EQ(faults.stats().nic_crashes, 2u);
}

// Satellite: regression for the periodic OS crash schedule — crash_period > 0
// must count each window exactly once no matter how often callers query
// inside it, and the windows must land at first + k*period.
TEST(FaultInjectorTest, PeriodicOsCrashCountsEachWindowOnce) {
  Simulator sim;
  FaultPlan plan;
  plan.os.first_crash_at = Milliseconds(1);
  plan.os.crash_period = Milliseconds(3);
  plan.os.restart_delay = Milliseconds(1);
  FaultInjector faults(sim, plan);

  auto up_at = [&](Duration t) {
    bool up = true;
    sim.Schedule(t - sim.Now(), [&faults, &up]() { up = faults.OsServiceUp(); });
    sim.RunUntilIdle();
    return up;
  };
  // Window k covers [1ms + 3ms*k, 2ms + 3ms*k).
  for (int window = 0; window < 3; ++window) {
    const Duration base = Milliseconds(1) + window * Milliseconds(3);
    EXPECT_FALSE(up_at(base + Microseconds(100)));
    EXPECT_FALSE(up_at(base + Microseconds(500)));  // re-query: counted once
    EXPECT_FALSE(up_at(base + Microseconds(900)));
    EXPECT_TRUE(up_at(base + Microseconds(1100)));  // restarted
    EXPECT_TRUE(up_at(base + Microseconds(2900)));  // gap before next window
    EXPECT_EQ(faults.stats().os_crashes, static_cast<uint64_t>(window + 1));
  }
}

// --- NicShadow unit tests ----------------------------------------------------

TEST(NicShadowTest, DedupStateMachineAndEviction) {
  // The one at-most-once table: the NIC works on it, the OS owns it.
  RpcDedupCache table(/*completed_window=*/2);
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;

  EXPECT_EQ(table.Admit(1, 10), RpcDedupCache::Verdict::kNew);
  table.MarkDelivered(1, 10);
  table.Complete(1, 10, response);
  EXPECT_EQ(table.size(), 1u);

  // Complete is idempotent; Abort never touches a completed entry.
  RpcMessage second = response;
  second.status = RpcStatus::kInternal;
  table.Complete(1, 10, second);
  table.Abort(1, 10);
  EXPECT_EQ(table.size(), 1u);
  const RpcDedupCache::Screened replay = table.Screen(1, 10);
  ASSERT_NE(replay.cached, nullptr);
  EXPECT_EQ(replay.cached->status, RpcStatus::kOk);

  // Abort forgets an in-flight entry (admission shed it pre-execution).
  table.Admit(1, 11);
  table.Abort(1, 11);
  EXPECT_EQ(table.size(), 1u);

  // Completed entries evict FIFO past the window; in-flight never evicts.
  table.Admit(1, 99);  // stays in flight throughout
  for (uint64_t id = 20; id < 25; ++id) {
    table.Admit(1, id);
    table.Complete(1, id, response);
  }
  // Window of 2 completed + 1 in-flight survivor.
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Admit(1, 99), RpcDedupCache::Verdict::kInFlight);
  EXPECT_EQ(table.Admit(1, 24), RpcDedupCache::Verdict::kCompleted);
}

TEST(NicShadowTest, RecordsControlPlaneAllocations) {
  NicShadow shadow;
  shadow.RecordKernelChannel(0);
  shadow.RecordEndpoint({/*id=*/2, /*service_id=*/1, /*pid=*/0, 0, 0, 0});
  shadow.RecordContinuationAllocated(7);
  shadow.RecordContinuationAllocated(8);
  shadow.RecordContinuationFreed(7);
  AdmissionConfig admission;
  admission.enabled = true;
  shadow.RecordAdmission(admission);

  EXPECT_EQ(shadow.kernel_channel_count(), 1u);
  EXPECT_EQ(shadow.endpoint_count(), 1u);
  EXPECT_EQ(shadow.continuation_count(), 1u);  // 8 allocated, 7 freed
  EXPECT_EQ(shadow.writes(), 6u);
}

TEST(NicShadowTest, ReplayRulesAcrossTwoResets) {
  // A live NIC whose host-owned dedup table is reset in place; the shadow
  // here is a standalone, empty one so replay touches only the table.
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(std::move(config));
  machine.Start();
  LauberhornNic& nic = *machine.lauberhorn_nic();
  RpcDedupCache& table = nic.dedup();

  NicShadow shadow;
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;
  response.request_id = 1;
  table.Admit(5, 1);
  table.MarkDelivered(5, 1);
  table.Complete(5, 1, response);  // completed: replay the response
  table.Admit(5, 2);
  table.MarkDelivered(5, 2);  // delivered: pin in flight, never re-execute
  table.Admit(5, 3);          // undelivered: forget, retransmit runs fresh

  const NicShadow::ReplayCounts first = shadow.ReplayInto(nic);
  EXPECT_EQ(first.dedup.completed, 1u);
  EXPECT_EQ(first.dedup.pinned, 1u);
  EXPECT_EQ(first.dedup.dropped, 1u);
  EXPECT_EQ(table.size(), 2u);  // the undelivered entry is gone
  const RpcDedupCache::Screened completed = table.Screen(5, 1);
  ASSERT_NE(completed.cached, nullptr);
  EXPECT_EQ(completed.cached->status, RpcStatus::kOk);
  EXPECT_EQ(table.Admit(5, 2), RpcDedupCache::Verdict::kInFlight);  // pinned

  // The second reset turns the pinned entry into a synthetic kInternal
  // terminal instead of pinning it forever.
  const NicShadow::ReplayCounts second = shadow.ReplayInto(nic);
  EXPECT_EQ(second.dedup.completed, 2u);
  EXPECT_EQ(second.dedup.pinned, 0u);
  EXPECT_EQ(second.dedup.dropped, 0u);
  const RpcDedupCache::Screened retransmit = table.Screen(5, 2);
  EXPECT_EQ(retransmit.verdict, RpcDedupCache::Verdict::kCompleted);
  ASSERT_NE(retransmit.cached, nullptr);
  EXPECT_EQ(retransmit.cached->status, RpcStatus::kInternal);
  EXPECT_EQ(retransmit.cached->request_id, 2u);
  EXPECT_EQ(table.Admit(5, 3), RpcDedupCache::Verdict::kNew);
}

// The table survives a reset as it stands, so FIFO eviction keeps following
// completion order. Two flows complete in the reverse of their key order; a
// reset that rebuilt the table in key order would evict the most recently
// completed entry first and let its retransmit execute again.
TEST(NicShadowTest, ResetKeepsCompletionOrder) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.server_dedup_window = 2;
  Machine machine(std::move(config));
  machine.Start();
  LauberhornNic& nic = *machine.lauberhorn_nic();
  RpcDedupCache& table = nic.dedup();

  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.status = RpcStatus::kOk;
  const uint64_t low_flow = 1;
  const uint64_t high_flow = 2;
  for (uint64_t flow : {low_flow, high_flow}) {
    table.Admit(flow, 7);
    table.MarkDelivered(flow, 7);
  }
  table.Complete(high_flow, 7, response);
  table.Complete(low_flow, 7, response);  // the most recent completion

  NicShadow().ReplayInto(nic);
  table.Admit(3, 7);
  table.Complete(3, 7, response);  // evicts the oldest completion only

  EXPECT_EQ(table.Admit(low_flow, 7), RpcDedupCache::Verdict::kCompleted);
  EXPECT_EQ(table.Admit(high_flow, 7), RpcDedupCache::Verdict::kNew);
}

// --- End-to-end recovery through Machine -------------------------------------

// Slim copy of fault_test.cc's harness: uniquely-numbered RPCs, per-seq
// execution counts — the observable for at-most-once across a NIC crash.
class RecoveryHarness {
 public:
  explicit RecoveryHarness(
      MachineConfig config,
      std::optional<LauberhornNic::VfConfig> vf_config = std::nullopt,
      Duration service_time = Nanoseconds(500))
      : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "counted";
    def.udp_port = 7000;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = [this](const std::vector<WireValue>& args) {
      ++execs_[args.at(0).scalar];
      return std::vector<WireValue>{args.at(0)};
    };
    method.SetFixedServiceTime(service_time);
    def.methods[0] = std::move(method);
    uint32_t vf = 0;
    if (vf_config.has_value()) {
      vf = machine_.CreateVf(*std::move(vf_config));
    }
    service_ = &machine_.AddService(std::move(def), 2, vf);
    machine_.Start();
    machine_.StartHotLoop(*service_);
    machine_.sim().RunUntil(Microseconds(100));
  }

  void Run(int count, Duration gap, Duration drain = Milliseconds(10)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    machine_.sim().RunUntil(machine_.sim().Now() + gap * count + drain);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  uint64_t DuplicateExecutions() const {
    uint64_t dups = 0;
    for (const auto& [seq, count] : execs_) {
      if (count > 1) {
        ++dups;
      }
    }
    return dups;
  }
  uint64_t TotalExecutions() const {
    uint64_t total = 0;
    for (const auto& [seq, count] : execs_) {
      total += count;
    }
    return total;
  }
  Machine& machine() { return machine_; }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  std::unordered_map<uint64_t, uint32_t> execs_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
};

MachineConfig RecoveryConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.client_retransmit_timeout = Microseconds(200);
  config.client_max_retransmits = 8;
  config.client_backoff_multiplier = 2.0;
  config.client_max_retransmit_timeout = Milliseconds(2);
  config.server_dedup = true;
  return config;
}

TEST(RecoveryE2eTest, WatchdogRecoversNicMidLoadAtMostOnce) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);  // one crash
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config);

  // Publish recovery into a directory the way a cluster plane would: the
  // replica degrades while the shadow replays and comes back up after —
  // never kDown, so a hash ring would keep its keys.
  ServiceDirectory directory;
  directory.AddReplica(1, ReplicaInfo{});
  NicRecoveryManager* recovery = harness.machine().nic_recovery();
  ASSERT_NE(recovery, nullptr);
  recovery->on_recovery_begin = [&]() { directory.MarkDegraded(1, 0); };
  recovery->on_recovery_end = [&]() { directory.MarkUp(1, 0); };

  harness.Run(100, Microseconds(10));

  // The watchdog detected the dead device and drove reset + shadow replay.
  const auto& stats = recovery->stats();
  EXPECT_EQ(stats.watchdog_fires, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.replayed_endpoints, 0u);
  EXPECT_GT(stats.replayed_kernel_channels, 0u);
  EXPECT_GT(stats.last_blackout, 0);
  const auto& nic = harness.machine().lauberhorn_nic()->stats();
  EXPECT_EQ(nic.nic_resets, 1u);
  EXPECT_GT(nic.crashed_polls, 0u);  // the hot loop polled a dead device

  // At-most-once across the crash: every request executed exactly once —
  // delivered-but-unanswered requests stay pinned in flight (the client
  // times out; goodput loss, never a second execution).
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  RpcClient& client = harness.machine().client();
  EXPECT_EQ(harness.ok() + client.timeouts(), harness.sent());
  EXPECT_GE(harness.ok(), harness.sent() - stats.replayed_dedup_in_flight);
  EXPECT_GT(client.retransmits(), 0u);

  // Degraded during replay, up after, and the marked_down path never ran.
  EXPECT_EQ(directory.stats().marked_degraded, 1u);
  EXPECT_EQ(directory.stats().marked_up, 1u);
  EXPECT_EQ(directory.stats().marked_down, 0u);
  EXPECT_EQ(directory.replica(1, 0).health, ReplicaHealth::kUp);
}

// The NIC dies while a handler runs: the request was delivered, its response
// dies with the device. The reset pins its dedup entry in flight, so every
// retransmit is dropped and the client times out — the handler never runs a
// second time.
TEST(RecoveryE2eTest, RequestDeliveredBeforeCrashStaysPinned) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(150);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config, std::nullopt, Microseconds(200));

  harness.Run(1, Microseconds(10), Milliseconds(20));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replayed_dedup_in_flight, 1u);
  EXPECT_EQ(harness.TotalExecutions(), 1u);
  RpcClient& client = harness.machine().client();
  EXPECT_GT(client.retransmits(), 0u);
  EXPECT_EQ(client.timeouts(), 1u);
  EXPECT_EQ(harness.ok(), 0u);
}

TEST(RecoveryE2eTest, PeriodicCrashesRecoverEveryTime) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  config.faults.nic_crash.crash_period = Milliseconds(1);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  RecoveryHarness harness(config);
  harness.Run(200, Microseconds(10), /*drain=*/Milliseconds(15));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_GE(stats.recoveries, 2u);
  EXPECT_EQ(stats.recoveries, harness.machine().fault_injector()->stats().nic_crashes);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.ok() + harness.machine().client().timeouts(),
            harness.sent());
}

TEST(RecoveryE2eTest, DeterministicAcrossRuns) {
  auto run = [&]() {
    MachineConfig config = RecoveryConfig();
    config.faults.nic_crash.first_crash_at = Microseconds(300);
    config.faults.nic_crash.crash_period = Milliseconds(1);
    RecoveryHarness harness(config);
    harness.Run(150, Microseconds(8));
    return std::tuple(harness.ok(), harness.TotalExecutions(),
                      harness.machine().client().retransmits(),
                      harness.machine().nic_recovery()->stats().recoveries,
                      harness.machine().nic_shadow()->writes());
  };
  EXPECT_EQ(run(), run());
}

// Tentpole: a tenant's whole NIC slice — the VF partition, its admission
// quota, and its endpoint allocations — is OS state, so it survives a NIC
// crash via shadow replay like everything else, with at-most-once intact.
TEST(RecoveryE2eTest, VfPartitionAndQuotaSurviveNicCrash) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  config.faults.nic_crash.reset_latency = Microseconds(50);
  LauberhornNic::VfConfig vf;
  vf.name = "tenant-a";
  vf.admission.enabled = true;
  vf.admission.quota_rps = 5e5;  // generous: no sheds at this offered load
  vf.admission.quota_burst = 64;
  vf.endpoint_limit = 2;
  RecoveryHarness harness(config, vf);

  harness.Run(100, Microseconds(10));

  const auto& stats = harness.machine().nic_recovery()->stats();
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.replayed_vfs, 1u);
  EXPECT_EQ(stats.replayed_endpoints, 2u);

  // The partition came back: VF 1 exists on the reborn device, carries its
  // admission config, its endpoint slice is fully restored, and traffic
  // kept flowing through it after the reset.
  LauberhornNic& nic = *harness.machine().lauberhorn_nic();
  ASSERT_EQ(nic.NumVfs(), 2u);
  EXPECT_EQ(nic.vf_config(1).name, "tenant-a");
  EXPECT_TRUE(nic.vf_config(1).admission.enabled);
  EXPECT_EQ(nic.vf_config(1).endpoint_limit, 2u);
  EXPECT_EQ(nic.vf_stats(1).endpoints, 2u);
  EXPECT_GT(nic.vf_stats(1).rx_requests, 0u);

  // At-most-once held across the crash: no request executed twice.
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.ok() + harness.machine().client().timeouts(),
            harness.sent());

  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics);
  EXPECT_EQ(metrics.Counter("recovery/replayed_vfs"), 1u);
  EXPECT_EQ(metrics.Counter("nic/vf1/endpoints"), 2u);
}

// Satellite: an OS crash/restart window does not wipe the NIC's dedup cache
// (the NIC outlives the host software stack) — a retransmit of an
// already-executed request that crosses the window is answered from the
// cache, never re-executed.
TEST(RecoveryE2eTest, DedupReplaysAcrossOsCrashWindow) {
  MachineConfig config = RecoveryConfig();
  config.faults.net.good_loss = 0.3;  // lose responses too -> forced replays
  config.faults.os.first_crash_at = Microseconds(400);
  config.faults.os.crash_period = 0;
  config.faults.os.restart_delay = Microseconds(400);
  RecoveryHarness harness(config);
  harness.Run(150, Microseconds(8), /*drain=*/Milliseconds(20));

  // Heavy loss can exhaust a retransmit budget (a timeout, accounted), but
  // at-most-once must hold and the bulk of goodput must survive.
  EXPECT_EQ(harness.ok() + harness.machine().client().timeouts(),
            harness.sent());
  EXPECT_GE(harness.ok(), harness.sent() * 95 / 100);
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_LE(harness.TotalExecutions(), harness.sent());
  const auto& nic = harness.machine().lauberhorn_nic()->stats();
  EXPECT_GT(nic.dup_replays, 0u);           // cached responses served dups
  EXPECT_GT(nic.drops_service_down, 0u);    // the window was actually hit
  EXPECT_GT(harness.machine().client().retransmits(), 0u);
}

// Satellite: the PR-7 CC fault counters and the recovery counters must be
// visible through Machine::ExportMetrics.
TEST(RecoveryE2eTest, ExportsFaultAndRecoveryMetrics) {
  MachineConfig config = RecoveryConfig();
  config.faults.nic_crash.first_crash_at = Microseconds(300);
  RecoveryHarness harness(config);
  harness.Run(50, Microseconds(10));

  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics);
  EXPECT_TRUE(metrics.HasCounter("fault/cc_grant_losses"));
  EXPECT_TRUE(metrics.HasCounter("fault/cc_ecn_corruptions"));
  EXPECT_TRUE(metrics.HasCounter("fault/nic_crashes"));
  EXPECT_EQ(metrics.Counter("fault/nic_crashes"), 1u);
  EXPECT_TRUE(metrics.HasCounter("nic/resets"));
  EXPECT_EQ(metrics.Counter("nic/resets"), 1u);
  EXPECT_TRUE(metrics.HasCounter("recovery/shadow_writes"));
  EXPECT_GT(metrics.Counter("recovery/shadow_writes"), 0u);
  EXPECT_EQ(metrics.Counter("recovery/recoveries"), 1u);
  EXPECT_GT(metrics.Gauge("recovery/last_blackout_us"), 0.0);
}

}  // namespace
}  // namespace lauberhorn
