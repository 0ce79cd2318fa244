// Tests for the Machine façade: assembly across stacks and platforms,
// measurement plumbing (end-system latency, cycles/RPC, resets), service
// registration, and the RPC client.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/machine.h"

namespace lauberhorn {
namespace {

TEST(MachineTest, StackNames) {
  EXPECT_EQ(ToString(StackKind::kLinux), "linux");
  EXPECT_EQ(ToString(StackKind::kBypass), "bypass");
  EXPECT_EQ(ToString(StackKind::kLauberhorn), "lauberhorn");
}

TEST(MachineTest, OnlyActiveStackObjectsExist) {
  MachineConfig config;
  config.stack = StackKind::kLinux;
  Machine linux_machine(config);
  EXPECT_NE(linux_machine.dma_nic(), nullptr);
  EXPECT_NE(linux_machine.linux_stack(), nullptr);
  EXPECT_EQ(linux_machine.bypass(), nullptr);
  EXPECT_EQ(linux_machine.lauberhorn_nic(), nullptr);

  config.stack = StackKind::kLauberhorn;
  Machine lbh_machine(config);
  EXPECT_EQ(lbh_machine.dma_nic(), nullptr);
  EXPECT_NE(lbh_machine.lauberhorn_nic(), nullptr);
  EXPECT_NE(lbh_machine.lauberhorn_runtime(), nullptr);
}

// The server-side counters have one name on every stack: a comparison across
// stacks reads the same keys, whichever object holds the count.
TEST(MachineTest, ServerAndOverloadMetricsAreStackNeutral) {
  const auto server_keys = [](StackKind stack) {
    MachineConfig config;
    config.stack = stack;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.client().Call(echo, 0,
                          std::vector<WireValue>{WireValue::Bytes({1, 2, 3})},
                          [](const RpcMessage&, Duration) {});
    machine.sim().RunUntil(Milliseconds(2));
    MetricsRegistry metrics;
    machine.ExportMetrics(metrics);
    EXPECT_EQ(metrics.Counter("server/dedup/admitted"),
              machine.server_stats().dedup.admitted);
    EXPECT_EQ(metrics.Counter("server/dedup/admitted"), 1u) << ToString(stack);
    std::set<std::string> keys;
    const auto keep = [&keys](const std::string& key) {
      if (key.rfind("server/", 0) == 0 || key.rfind("overload/", 0) == 0) {
        keys.insert(key);
      }
    };
    for (const auto& [key, value] : metrics.counters()) {
      keep(key);
    }
    for (const auto& [key, value] : metrics.gauges()) {
      keep(key);
    }
    return keys;
  };
  const std::set<std::string> expected = {
      "overload/shed_cpu_us",         "overload/sheds_queue",
      "overload/sheds_quota",         "overload/sheds_sojourn",
      "overload/sheds_vf_quota",      "server/dedup/admitted",
      "server/dedup/drops_in_flight", "server/dedup/evictions",
      "server/dedup/replays",         "server/service_down_drops"};
  EXPECT_EQ(server_keys(StackKind::kLinux), expected);
  EXPECT_EQ(server_keys(StackKind::kBypass), expected);
  EXPECT_EQ(server_keys(StackKind::kLauberhorn), expected);
}

TEST(MachineTest, AllPlatformsBootAndServe) {
  for (const PlatformSpec& platform :
       {PlatformSpec::EnzianEci(), PlatformSpec::ModernPcPcie(),
        PlatformSpec::Cxl3Projection()}) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.platform = platform;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    int done = 0;
    machine.client().Call(echo, 0,
                          std::vector<WireValue>{WireValue::Bytes({1, 2})},
                          [&](const RpcMessage&, Duration) { ++done; });
    machine.sim().RunUntil(Milliseconds(30));
    EXPECT_EQ(done, 1) << platform.name;
  }
}

TEST(MachineTest, FasterInterconnectGivesLowerLatency) {
  auto measure = [](PlatformSpec platform) {
    MachineConfig config;
    config.stack = StackKind::kLauberhorn;
    config.platform = std::move(platform);
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    machine.StartHotLoop(echo);
    machine.sim().RunUntil(Milliseconds(1));
    for (int i = 0; i < 10; ++i) {
      machine.sim().Schedule(Microseconds(50) * i, [&machine, &echo]() {
        machine.client().Call(echo, 0,
                              std::vector<WireValue>{WireValue::Bytes({1})});
      });
    }
    machine.sim().RunUntil(Milliseconds(20));
    return machine.end_system_latency().P50();
  };
  EXPECT_LT(measure(PlatformSpec::Cxl3Projection()),
            measure(PlatformSpec::EnzianEci()));
}

TEST(MachineTest, EndSystemLatencyExcludesPropagation) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.propagation = Microseconds(50);  // long wire
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  Duration rtt = 0;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&](const RpcMessage&, Duration r) { rtt = r; });
  machine.sim().RunUntil(Milliseconds(20));
  // Client RTT includes 2x50us of wire; end-system latency must not.
  EXPECT_GT(rtt, Microseconds(100));
  EXPECT_LT(machine.end_system_latency().P50(), Microseconds(20));
}

TEST(MachineTest, ResetMeasurementClearsWindows) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(Milliseconds(10));
  EXPECT_EQ(machine.end_system_latency().count(), 1u);
  machine.ResetMeasurement();
  EXPECT_EQ(machine.end_system_latency().count(), 0u);
  EXPECT_EQ(machine.CyclesPerRpc(), 0.0);
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.end_system_latency().count(), 1u);
  EXPECT_GT(machine.CyclesPerRpc(), 0.0);
}

TEST(MachineTest, EndpointsOfReturnsAllocatedEndpoints) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& a =
      machine.AddService(ServiceRegistry::MakeEchoService(1, 7000), /*max_cores=*/3);
  const ServiceDef& b = machine.AddService(ServiceRegistry::MakeEchoService(2, 7001));
  EXPECT_EQ(machine.EndpointsOf(a).size(), 3u);
  EXPECT_EQ(machine.EndpointsOf(b).size(), 1u);
  // Distinct endpoints.
  auto all = machine.EndpointsOf(a);
  auto more = machine.EndpointsOf(b);
  all.insert(all.end(), more.begin(), more.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(RpcClientTest, MatchesResponsesToRequests) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  std::vector<uint64_t> ids;
  std::vector<uint64_t> completed_ids;
  for (int i = 0; i < 5; ++i) {
    const uint64_t id = machine.client().Call(
        echo, 0, std::vector<WireValue>{WireValue::Bytes({static_cast<uint8_t>(i)})},
        [&completed_ids](const RpcMessage& r, Duration) {
          completed_ids.push_back(r.request_id);
        });
    ids.push_back(id);
  }
  machine.sim().RunUntil(Milliseconds(50));
  std::sort(ids.begin(), ids.end());
  std::sort(completed_ids.begin(), completed_ids.end());
  EXPECT_EQ(ids, completed_ids);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

TEST(RpcClientTest, RttHistogramPopulates) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));
  for (int i = 0; i < 10; ++i) {
    machine.sim().Schedule(Microseconds(100) * i, [&machine, &echo]() {
      machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({9})});
    });
  }
  machine.sim().RunUntil(Milliseconds(20));
  EXPECT_EQ(machine.client().rtt().count(), 10u);
  EXPECT_GT(machine.client().rtt().P50(), Microseconds(1));
  EXPECT_LT(machine.client().rtt().P50(), Microseconds(20));
}

TEST(MachineTest, CyclesPerRpcOrdering) {
  // The paper's efficiency ordering must hold for the busy-cycle metric too
  // (excluding bypass, whose spin dominates by design).
  auto measure = [](StackKind stack) {
    MachineConfig config;
    config.stack = stack;
    Machine machine(config);
    const ServiceDef& echo =
        machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
    machine.Start();
    if (stack == StackKind::kLauberhorn) {
      machine.StartHotLoop(echo);
    }
    machine.sim().RunUntil(Milliseconds(1));
    machine.ResetMeasurement();
    for (int i = 0; i < 20; ++i) {
      machine.sim().Schedule(Microseconds(100) * i, [&machine, &echo]() {
        machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})});
      });
    }
    machine.sim().RunUntil(Milliseconds(50));
    return machine.CyclesPerRpc();
  };
  const double lauberhorn = measure(StackKind::kLauberhorn);
  const double linux_cycles = measure(StackKind::kLinux);
  EXPECT_LT(lauberhorn, 200.0) << "hot dispatch is essentially free (§1)";
  EXPECT_GT(linux_cycles, 10000.0);
}


TEST(RpcClientTest, RetransmissionRecoversFromLoss) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.loss_probability = 0.3;
  config.client_retransmit_timeout = Milliseconds(1);
  config.client_max_retransmits = 10;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.StartHotLoop(echo);
  machine.sim().RunUntil(Milliseconds(1));

  int ok = 0;
  int timed_out = 0;
  for (int i = 0; i < 100; ++i) {
    machine.sim().Schedule(Microseconds(20) * i, [&machine, &echo, &ok, &timed_out]() {
      machine.client().Call(echo, 0,
                            std::vector<WireValue>{WireValue::Bytes({1, 2, 3})},
                            [&ok, &timed_out](const RpcMessage& r, Duration) {
                              if (r.status == RpcStatus::kOk) {
                                ++ok;
                              } else if (r.status == kTimedOut) {
                                ++timed_out;
                              }
                            });
    });
  }
  machine.sim().RunUntil(Milliseconds(100));
  // 30% loss each way but 10 retries: effectively everything completes.
  EXPECT_EQ(ok + timed_out, 100);
  EXPECT_GE(ok, 98);
  EXPECT_GT(machine.client().retransmits(), 0u);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

TEST(RpcClientTest, TimeoutReportedWhenServerUnreachable) {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.platform.wire.loss_probability = 1.0;  // black hole
  config.client_retransmit_timeout = Milliseconds(1);
  config.client_max_retransmits = 2;
  Machine machine(config);
  const ServiceDef& echo = machine.AddService(ServiceRegistry::MakeEchoService(1, 7000));
  machine.Start();
  machine.sim().RunUntil(Milliseconds(1));

  RpcStatus status = RpcStatus::kOk;
  machine.client().Call(echo, 0, std::vector<WireValue>{WireValue::Bytes({1})},
                        [&status](const RpcMessage& r, Duration) { status = r.status; });
  machine.sim().RunUntil(Milliseconds(50));
  EXPECT_EQ(status, kTimedOut);
  EXPECT_EQ(machine.client().timeouts(), 1u);
  EXPECT_EQ(machine.client().retransmits(), 2u);
  EXPECT_EQ(machine.client().outstanding(), 0u);
}

}  // namespace
}  // namespace lauberhorn
