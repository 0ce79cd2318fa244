// Tests for the NIC dispatch-discipline subsystem (src/nic/dispatch_policy,
// §18): the deterministic heavy-tailed service-time generators, policy
// selection and parsing, end-to-end correctness of d-FCFS / c-FCFS / JBSQ(k)
// (everything completes, nothing executes twice), the JBSQ outstanding bound,
// credit return when a core retires mid-load, central-queue visibility through
// DispatchBacklog/ServiceBacklog, TryAgain not stranding central requests,
// the spill onto a coreless endpoint when the loop cap blocks a loop, a
// retired d-FCFS endpoint handing its whole queue to the kernel path,
// the central queue's and the JBSQ runway's admission gates, at-most-once
// across NIC crashes under central disciplines, and bit-identical
// determinism across runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "src/core/machine.h"
#include "src/nic/dispatch_policy/dispatch_policy.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"

namespace lauberhorn {
namespace {

// --- Policy kind parsing -----------------------------------------------------

TEST(DispatchPolicyKindTest, ToStringParseRoundTrip) {
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kDFcfs, DispatchPolicyKind::kCFcfs,
        DispatchPolicyKind::kJbsq}) {
    const auto parsed = ParseDispatchPolicyKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value()) << ToString(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParseDispatchPolicyKind("dfcfs"), DispatchPolicyKind::kDFcfs);
  EXPECT_EQ(ParseDispatchPolicyKind("cfcfs"), DispatchPolicyKind::kCFcfs);
  EXPECT_FALSE(ParseDispatchPolicyKind("bogus").has_value());
}

// --- Service-time distributions ----------------------------------------------

std::vector<WireValue> SeqArgs(uint64_t seq) {
  return {WireValue::U64(seq)};
}

TEST(ServiceTimeDistTest, PureFunctionOfRequestContent) {
  // The same request must cost the same nanoseconds no matter which function
  // instance (policy, shard, retransmit) evaluates it.
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kExponential;
  spec.mean = Microseconds(2);
  spec.seed = 42;
  const auto a = MakeServiceTimeFn(spec);
  const auto b = MakeServiceTimeFn(spec);
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    EXPECT_EQ(a(SeqArgs(seq)), b(SeqArgs(seq)));
  }
  // Distinct seeds decorrelate services fed identical sequence numbers.
  spec.seed = 43;
  const auto c = MakeServiceTimeFn(spec);
  int differing = 0;
  for (uint64_t seq = 0; seq < 100; ++seq) {
    differing += a(SeqArgs(seq)) != c(SeqArgs(seq));
  }
  EXPECT_GT(differing, 90);
}

TEST(ServiceTimeDistTest, ExponentialSampleMeanMatchesAnalytic) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kExponential;
  spec.mean = Microseconds(5);
  const auto fn = MakeServiceTimeFn(spec);
  double sum = 0.0;
  const int n = 50000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_GE(d, Nanoseconds(1));
    sum += static_cast<double>(d);
  }
  const double sample_mean = sum / n;
  const double analytic = static_cast<double>(ServiceTimeMean(spec));
  EXPECT_NEAR(sample_mean / analytic, 1.0, 0.05);
}

TEST(ServiceTimeDistTest, BimodalSplitHitsHeavyFraction) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kBimodal;
  spec.heavy_fraction = 0.005;
  spec.bimodal_short = Microseconds(1);
  spec.bimodal_long = Microseconds(100);
  const auto fn = MakeServiceTimeFn(spec);
  int heavy = 0;
  const int n = 100000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_TRUE(d == spec.bimodal_short || d == spec.bimodal_long);
    heavy += d == spec.bimodal_long;
  }
  const double observed = static_cast<double>(heavy) / n;
  EXPECT_NEAR(observed, spec.heavy_fraction, 0.002);
  // Analytic mean: (1-f)*short + f*long.
  EXPECT_NEAR(static_cast<double>(ServiceTimeMean(spec)),
              0.995 * static_cast<double>(spec.bimodal_short) +
                  0.005 * static_cast<double>(spec.bimodal_long),
              static_cast<double>(Nanoseconds(2)));
}

TEST(ServiceTimeDistTest, BoundedParetoStaysInSupport) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kBoundedPareto;
  spec.pareto_alpha = 1.2;
  spec.pareto_lo = Nanoseconds(500);
  spec.pareto_hi = Microseconds(200);
  const auto fn = MakeServiceTimeFn(spec);
  double sum = 0.0;
  Duration max_seen = 0;
  const int n = 100000;
  for (uint64_t seq = 0; seq < n; ++seq) {
    const Duration d = fn(SeqArgs(seq));
    ASSERT_GE(d, spec.pareto_lo);
    ASSERT_LE(d, spec.pareto_hi);
    max_seen = std::max(max_seen, d);
    sum += static_cast<double>(d);
  }
  // Heavy tail: the support's top decade is actually reached...
  EXPECT_GT(max_seen, Microseconds(100));
  // ...and the sample mean agrees with the analytic bounded-Pareto mean.
  EXPECT_NEAR(sum / n / static_cast<double>(ServiceTimeMean(spec)), 1.0, 0.10);
}

// --- End-to-end harness ------------------------------------------------------

// Counted service running a chosen dispatch discipline on a Lauberhorn
// machine; tracks per-sequence execution counts so tests can assert
// at-most-once alongside completion accounting.
class DispatchHarness {
 public:
  DispatchHarness(MachineConfig config, DispatchPolicyConfig policy,
                  ServiceTimeSpec service_time, int max_cores = 3)
      : machine_(std::move(config)) {
    ServiceDef def;
    def.service_id = 1;
    def.name = "disp-counted";
    def.udp_port = 7000;
    def.dispatch = policy;
    MethodDef method;
    method.method_id = 0;
    method.name = "count";
    method.request_sig.args = {WireType::kU64};
    method.response_sig.args = {WireType::kU64};
    method.handler = ledger_.Handler();
    method.service_time = MakeServiceTimeFn(service_time);
    def.methods[0] = std::move(method);
    service_ = &machine_.AddService(std::move(def), max_cores);
    machine_.Start();
    machine_.StartHotLoop(*service_);
    machine_.sim().RunUntil(Microseconds(100));
  }

  void Flood(int count, Duration gap, Duration drain = Milliseconds(5)) {
    auto fire = std::make_shared<Function<void()>>();
    int remaining = count;
    *fire = [this, fire, &remaining, gap]() {
      if (remaining-- <= 0) {
        return;
      }
      std::vector<WireValue> args = {WireValue::U64(next_seq_++)};
      machine_.client().Call(*service_, 0, args,
                             [this](const RpcMessage& response, Duration rtt) {
                               if (response.status == RpcStatus::kOk) {
                                 ++ok_;
                                 rtt_.Record(rtt);
                               }
                             });
      machine_.sim().Schedule(gap, [fire]() { (*fire)(); });
    };
    (*fire)();
    machine_.sim().RunUntil(machine_.sim().Now() + gap * count + drain);
  }

  uint64_t sent() const { return next_seq_; }
  uint64_t ok() const { return ok_; }
  const Histogram& rtt() const { return rtt_; }
  uint64_t DuplicateExecutions() const { return ledger_.Duplicates(); }
  uint64_t TotalExecutions() const { return ledger_.Total(); }
  Machine& machine() { return machine_; }
  const ServiceDef& service() const { return *service_; }
  LauberhornNic& nic() { return *machine_.lauberhorn_nic(); }

 private:
  Machine machine_;
  const ServiceDef* service_ = nullptr;
  ExecutionLedger ledger_;
  uint64_t next_seq_ = 0;
  uint64_t ok_ = 0;
  Histogram rtt_;
};

MachineConfig DispatchConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  return config;
}

DispatchPolicyConfig Policy(DispatchPolicyKind kind, uint32_t k = 2) {
  DispatchPolicyConfig policy;
  policy.kind = kind;
  policy.jbsq_k = k;
  return policy;
}

ServiceTimeSpec FixedSpec(Duration d) {
  ServiceTimeSpec spec;
  spec.dist = ServiceTimeDist::kFixed;
  spec.mean = d;
  return spec;
}

class DispatchE2eTest : public ::testing::TestWithParam<DispatchPolicyKind> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, DispatchE2eTest,
                         ::testing::Values(DispatchPolicyKind::kDFcfs,
                                           DispatchPolicyKind::kCFcfs,
                                           DispatchPolicyKind::kJbsq),
                         [](const auto& info) {
                           return std::string(
                               info.param == DispatchPolicyKind::kDFcfs ? "dFcfs"
                               : info.param == DispatchPolicyKind::kCFcfs
                                   ? "cFcfs"
                                   : "Jbsq");
                         });

TEST_P(DispatchE2eTest, EveryRequestCompletesExactlyOnce) {
  DispatchHarness harness(DispatchConfig(), Policy(GetParam()),
                          FixedSpec(Microseconds(2)));
  harness.Flood(300, Microseconds(1));
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_EQ(harness.TotalExecutions(), harness.sent());
  EXPECT_EQ(harness.machine().client().errors(), 0u);
  // The policy actually ran: its own counters carry the traffic.
  bool found = false;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == GetParam()) {
      found = true;
      EXPECT_GT(stats.hot_dispatches + stats.local_queued +
                    stats.central_queued,
                0u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(harness.nic().ServicePolicy(1).kind, GetParam());
}

TEST(DispatchCentralTest, CentralQueuePopulatesAndDrains) {
  // c-FCFS at ~2x capacity: the central queue must hold standing backlog
  // mid-run, DispatchBacklog/ServiceBacklog must see it, and it must be
  // fully drained (everything completes) once arrivals stop.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(6)));
  size_t max_central = 0;
  size_t max_service_backlog = 0;
  size_t max_ep_backlog = 0;
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_FALSE(endpoints.empty());
  auto probe = std::make_shared<Function<void()>>();
  *probe = [&, probe]() {
    max_central = std::max(max_central, harness.nic().CentralQueueDepth(1));
    max_service_backlog =
        std::max(max_service_backlog, harness.nic().ServiceBacklog(1));
    max_ep_backlog =
        std::max(max_ep_backlog, harness.nic().DispatchBacklog(endpoints[0]));
    harness.machine().sim().Schedule(Microseconds(5), [probe]() { (*probe)(); });
  };
  (*probe)();
  harness.Flood(200, Microseconds(1));

  EXPECT_GT(max_central, 0u);
  // Backlog views include the central queue (the governor/cluster signal).
  EXPECT_GE(max_service_backlog, max_central);
  EXPECT_GE(max_ep_backlog, 1u);
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.nic().CentralQueueDepth(1), 0u);
}

TEST(DispatchCentralTest, JbsqBoundsOutstandingPerCore) {
  // JBSQ(k=2): no endpoint's private queue may ever exceed k (one in the
  // handler + at most k-1 queued behind it, so pending <= k).
  const uint32_t k = 2;
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kJbsq, k),
                          FixedSpec(Microseconds(6)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  size_t max_pending = 0;
  auto probe = std::make_shared<Function<void()>>();
  *probe = [&, probe]() {
    for (uint32_t ep : endpoints) {
      max_pending = std::max(max_pending, harness.nic().QueueDepth(ep));
    }
    harness.machine().sim().Schedule(Microseconds(2), [probe]() { (*probe)(); });
  };
  (*probe)();
  harness.Flood(200, Microseconds(1));
  EXPECT_LE(max_pending, static_cast<size_t>(k));
  EXPECT_EQ(harness.ok(), harness.sent());
}

TEST(DispatchCentralTest, RetiredCoreReturnsJbsqCreditsToCentralQueue) {
  // A core retired mid-load while holding JBSQ credits must hand its queued
  // requests back to the central queue — not strand them — and the surviving
  // cores must finish every one of them.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kJbsq, /*k=*/4),
                          FixedSpec(Microseconds(8)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_GE(endpoints.size(), 2u);
  harness.machine().sim().Schedule(Microseconds(150), [&]() {
    harness.nic().RequestRetire(endpoints[0]);
  });
  harness.Flood(200, Microseconds(1), /*drain=*/Milliseconds(10));

  uint64_t returned = 0;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == DispatchPolicyKind::kJbsq) {
      returned = stats.returned_on_retire;
    }
  }
  EXPECT_GT(returned, 0u);
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchCentralTest, TryAgainDoesNotStrandCentralRequests) {
  // A lone request arriving while every core is parked on an armed TryAgain
  // deadline must still be delivered hot (the central hot path retargets to
  // a parked member); and a request arriving during the TryAgain *gap* must
  // be picked up by the next CONTROL poll, never stranded in the central
  // queue. Sparse arrivals exercise both races.
  DispatchHarness harness(DispatchConfig(),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(1)));
  harness.Flood(50, Microseconds(40), /*drain=*/Milliseconds(5));
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.nic().CentralQueueDepth(1), 0u);
  uint64_t hot = 0;
  for (const auto& [kind, stats] : harness.nic().PolicyStatsSnapshot()) {
    if (kind == DispatchPolicyKind::kCFcfs) {
      hot = stats.hot_dispatches;
    }
  }
  EXPECT_GT(hot, 0u);
}

// --- Core recruitment and core loss --------------------------------------------

TEST(DispatchRecruitTest, OverflowTakesTheKernelPathWhenTheLoopCapBlocksALoop) {
  // Two cores, one reserved for kernel work: the loop cap admits one loop,
  // so the service's second endpoint never gets one. Once the central queue
  // holds the live core's full runway, the overflow spills onto the coreless
  // endpoint through the kernel path, and the reserved core works the burst
  // alongside the loop instead of the loop draining it alone.
  MachineConfig config = DispatchConfig();
  config.num_cores = 2;
  const Duration handler = Microseconds(20);
  DispatchHarness harness(std::move(config), Policy(DispatchPolicyKind::kJbsq),
                          FixedSpec(handler), /*max_cores=*/2);
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  ASSERT_EQ(endpoints.size(), 2u);
  ASSERT_NE(harness.nic().EndpointActive(endpoints[0]),
            harness.nic().EndpointActive(endpoints[1]));
  const uint32_t coreless =
      harness.nic().EndpointActive(endpoints[0]) ? endpoints[1] : endpoints[0];

  const int burst = 20;
  harness.Flood(burst, Nanoseconds(500), /*drain=*/Milliseconds(2));
  EXPECT_EQ(harness.ok(), static_cast<uint64_t>(burst));
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_GT(harness.machine().lauberhorn_runtime()->rpcs_cold(), 0u);
  const auto trace = harness.nic().trace().ForEndpoint(coreless);
  EXPECT_TRUE(std::any_of(trace.begin(), trace.end(), [](const auto& entry) {
    return entry.event == TraceEvent::kDispatchCold;
  }));
  EXPECT_TRUE(std::none_of(trace.begin(), trace.end(), [](const auto& entry) {
    return entry.event == TraceEvent::kLoopEnter;
  })) << "the loop cap must have kept the second endpoint coreless";
  // One core alone needs burst x handler for the last request; two working
  // in parallel finish well inside three quarters of that.
  EXPECT_LT(harness.rtt().max(), burst * handler * 3 / 4);
}

TEST(DispatchRecruitTest, RetiredDFcfsEndpointHandsItsWholeQueueToTheKernelPath) {
  // d-FCFS: a core retired while its endpoint holds queued requests hands
  // all of them to the kernel path at once, where the dispatchers serve
  // them in parallel — not one per completed cold dispatch while the scale
  // cooldown withholds the loop restart.
  MachineConfig config = DispatchConfig();
  config.runtime.scale_cooldown = Milliseconds(5);
  const Duration handler = Microseconds(20);
  DispatchHarness harness(std::move(config), Policy(DispatchPolicyKind::kDFcfs),
                          FixedSpec(handler), /*max_cores=*/1);
  const uint32_t ep = harness.machine().EndpointsOf(harness.service()).at(0);
  const int queued = 8;
  size_t depth_at_retire = 0;
  harness.machine().sim().Schedule(Microseconds(5), [&]() {
    depth_at_retire = harness.nic().QueueDepth(ep);
    harness.machine().lauberhorn_runtime()->Deschedule(ep);
  });
  // One request in the handler, `queued` behind it on the private queue.
  harness.Flood(queued + 1, Nanoseconds(200), /*drain=*/Milliseconds(2));

  EXPECT_EQ(depth_at_retire, static_cast<size_t>(queued));
  EXPECT_EQ(harness.ok(), harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
  EXPECT_GE(harness.machine().lauberhorn_runtime()->rpcs_cold(),
            static_cast<uint64_t>(queued));
  // The in-flight request, then the queue in parallel rounds over the
  // machine's dispatchers; one at a time would take queued x handler more.
  EXPECT_LT(harness.rtt().max(), handler * (1 + queued / 2));
}

// --- Central disciplines under admission control -----------------------------

MachineConfig AdmissionDispatchConfig(size_t depth_limit, SojournConfig sojourn) {
  MachineConfig config = DispatchConfig();
  config.admission.enabled = true;
  config.admission.queue_depth_limit = depth_limit;
  config.admission.sojourn = sojourn;
  return config;
}

// A sojourn target no run here reaches, so only the depth bound can shed.
SojournConfig NoSojournShed() {
  SojournConfig sojourn;
  sojourn.target = Milliseconds(100);
  return sojourn;
}

// Max over the run of `sample()`, read every simulated microsecond.
std::shared_ptr<size_t> TrackMax(DispatchHarness& harness,
                                 Function<size_t()> sample) {
  auto max_seen = std::make_shared<size_t>(0);
  auto probe = std::make_shared<Function<void()>>();
  *probe = [&harness, max_seen, probe, sample = std::move(sample)]() {
    *max_seen = std::max(*max_seen, sample());
    harness.machine().sim().Schedule(Microseconds(1), [probe]() { (*probe)(); });
  };
  (*probe)();
  return max_seen;
}

TEST(DispatchAdmissionTest, CentralQueueShedsAtDepthLimitTimesMembers) {
  // The central queue holds one admission depth budget per member: with a
  // limit of 4 and 3 member endpoints it fills to exactly 12, and arrivals
  // past that are shed kQueueFull.
  const size_t depth_limit = 4;
  DispatchHarness harness(AdmissionDispatchConfig(depth_limit, NoSojournShed()),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(50)));
  const size_t members = harness.machine().EndpointsOf(harness.service()).size();
  ASSERT_EQ(members, 3u);
  const auto max_central = TrackMax(
      harness, [&harness]() { return harness.nic().CentralQueueDepth(1); });
  harness.Flood(100, Microseconds(1));

  const LauberhornNic::Stats stats = harness.nic().stats();
  EXPECT_EQ(*max_central, depth_limit * members);
  EXPECT_GT(stats.sheds.queue, 0u);
  EXPECT_EQ(stats.sheds.sojourn, 0u);
  EXPECT_EQ(harness.ok() + stats.sheds.queue, harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchAdmissionTest, CentralSojournGateWatchesTheCentralHead) {
  // c-FCFS keeps every private queue empty by design, so only a gate over
  // the central queue's head sees the standing backlog of a 2x overload:
  // it must shed kSojourn while no private queue ever holds a request.
  SojournConfig sojourn;
  sojourn.target = Microseconds(10);
  sojourn.interval = Microseconds(50);
  DispatchHarness harness(AdmissionDispatchConfig(0, sojourn),
                          Policy(DispatchPolicyKind::kCFcfs),
                          FixedSpec(Microseconds(6)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  const auto max_private = TrackMax(harness, [&harness, endpoints]() {
    size_t deepest = 0;
    for (uint32_t ep : endpoints) {
      deepest = std::max(deepest, harness.nic().QueueDepth(ep));
    }
    return deepest;
  });
  const auto max_central = TrackMax(
      harness, [&harness]() { return harness.nic().CentralQueueDepth(1); });
  harness.Flood(400, Microseconds(1));

  const LauberhornNic::Stats stats = harness.nic().stats();
  EXPECT_GT(stats.sheds.sojourn, 0u);
  EXPECT_EQ(stats.sheds.queue, 0u);
  EXPECT_EQ(*max_private, 0u);
  EXPECT_GT(*max_central, 0u);
  EXPECT_EQ(harness.ok() + stats.sheds.sojourn, harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchAdmissionTest, JbsqRunwayObeysAdmissionDepthLimit) {
  // JBSQ(4) lets a busy core hold three requests queued behind its
  // in-flight one; an admission depth limit of 2 must cap that runway and
  // shed the rest kQueueFull.
  const size_t depth_limit = 2;
  DispatchHarness harness(AdmissionDispatchConfig(depth_limit, NoSojournShed()),
                          Policy(DispatchPolicyKind::kJbsq, /*k=*/4),
                          FixedSpec(Microseconds(20)));
  const auto endpoints = harness.machine().EndpointsOf(harness.service());
  const auto max_pending = TrackMax(harness, [&harness, endpoints]() {
    size_t deepest = 0;
    for (uint32_t ep : endpoints) {
      deepest = std::max(deepest, harness.nic().QueueDepth(ep));
    }
    return deepest;
  });
  harness.Flood(100, Microseconds(1));

  const LauberhornNic::Stats stats = harness.nic().stats();
  EXPECT_EQ(*max_pending, depth_limit);
  EXPECT_GT(stats.sheds.queue, 0u);
  EXPECT_EQ(harness.ok() + stats.sheds.queue, harness.sent());
  EXPECT_EQ(harness.DuplicateExecutions(), 0u);
}

TEST(DispatchChaosTest, AtMostOnceAcrossNicCrashesUnderCentralPolicies) {
  // NIC crash wipes the central queue along with every other volatile
  // structure; the shadow replay restores control state and retransmits
  // re-run admission fresh. No sequence number may execute twice.
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kCFcfs, DispatchPolicyKind::kJbsq}) {
    MachineConfig config = DispatchConfig();
    config.faults.nic_crash.first_crash_at = Microseconds(300);
    config.faults.nic_crash.crash_period = Milliseconds(1);
    config.faults.nic_crash.reset_latency = Microseconds(50);
    config.client_retransmit_timeout = Microseconds(200);
    config.client_max_retransmits = 8;
    config.client_backoff_multiplier = 2.0;
    config.client_max_retransmit_timeout = Milliseconds(2);
    config.server_dedup = true;
    DispatchHarness harness(std::move(config), Policy(kind),
                            FixedSpec(Microseconds(3)));
    harness.Flood(200, Microseconds(10), /*drain=*/Milliseconds(15));

    EXPECT_EQ(harness.DuplicateExecutions(), 0u) << ToString(kind);
    EXPECT_GT(harness.machine().lauberhorn_nic()->stats().nic_resets, 0u);
    EXPECT_GT(harness.machine().client().retransmits(), 0u);
    EXPECT_GT(harness.ok(), 0u);
    EXPECT_EQ(harness.ok() + harness.machine().client().timeouts(),
              harness.sent())
        << ToString(kind);
  }
}

TEST(DispatchDeterminismTest, IdenticalRunsProduceIdenticalResults) {
  // Every group scan breaks ties by smallest endpoint id, so two identical
  // runs (including per-core dispatch placement) must agree bit-for-bit.
  auto run = [](DispatchPolicyKind kind) {
    DispatchHarness harness(DispatchConfig(), Policy(kind),
                            FixedSpec(Microseconds(4)));
    harness.Flood(200, Microseconds(1));
    std::vector<uint64_t> per_core;
    for (const auto& [core, occ] : harness.nic().CoreOccupancySnapshot()) {
      per_core.push_back(occ.dispatches);
      per_core.push_back(static_cast<uint64_t>(occ.busy_time));
    }
    return std::tuple(harness.ok(), harness.TotalExecutions(), per_core,
                      harness.nic().stats().hot_dispatches,
                      harness.nic().stats().queued_dispatches);
  };
  for (DispatchPolicyKind kind :
       {DispatchPolicyKind::kDFcfs, DispatchPolicyKind::kCFcfs,
        DispatchPolicyKind::kJbsq}) {
    EXPECT_EQ(run(kind), run(kind)) << ToString(kind);
  }
}

TEST(DispatchMetricsTest, PerCoreOccupancyTracksDeliveries) {
  DispatchHarness harness(DispatchConfig(), Policy(DispatchPolicyKind::kJbsq),
                          FixedSpec(Microseconds(2)));
  harness.Flood(200, Microseconds(1));
  const auto cores = harness.nic().CoreOccupancySnapshot();
  ASSERT_FALSE(cores.empty());
  uint64_t total_dispatches = 0;
  Duration total_busy = 0;
  for (const auto& [core, occ] : cores) {
    total_dispatches += occ.dispatches;
    total_busy += occ.busy_time;
  }
  // Every completed request was delivered to some core and burned handler
  // time there.
  EXPECT_GE(total_dispatches, harness.ok());
  EXPECT_GE(total_busy,
            static_cast<Duration>(harness.ok()) * Microseconds(2));

  // And the metrics export surfaces them under nic/core<i>/.
  MetricsRegistry metrics;
  harness.machine().ExportMetrics(metrics, "m0/");
  bool any_core_metric = false;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.find("m0/nic/core") != std::string::npos &&
        name.find("/dispatches") != std::string::npos) {
      any_core_metric = true;
    }
  }
  EXPECT_TRUE(any_core_metric);
}

}  // namespace
}  // namespace lauberhorn
