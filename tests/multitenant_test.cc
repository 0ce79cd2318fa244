// Multi-tenant NIC virtualization (DESIGN.md §17): PF/VF partitioning of the
// Lauberhorn NIC. Covers the VF endpoint-slice cap, per-VF admission quotas
// (the on-NIC noisy-neighbor gate), per-VF dedup namespaces (one tenant's
// request ids can never suppress another's), and Toeplitz RSS steering of a
// tenant's flows across its endpoint replicas.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/core/machine.h"
#include "src/net/headers.h"
#include "src/proto/marshal.h"
#include "src/proto/rpc_message.h"
#include "src/stats/metrics.h"

namespace lauberhorn {
namespace {

MachineConfig TenantMachineConfig() {
  MachineConfig config;
  config.stack = StackKind::kLauberhorn;
  config.num_cores = 4;
  config.server_dedup = true;
  return config;
}

// Echo service whose handler bumps a per-sequence execution counter.
ServiceDef CountedService(uint32_t id, uint16_t port,
                          std::unordered_map<uint64_t, uint32_t>* execs) {
  ServiceDef def;
  def.service_id = id;
  def.name = "tenant-svc-" + std::to_string(id);
  def.udp_port = port;
  MethodDef method;
  method.method_id = 0;
  method.name = "count";
  method.request_sig.args = {WireType::kU64};
  method.response_sig.args = {WireType::kU64};
  method.handler = [execs](const std::vector<WireValue>& args) {
    ++(*execs)[args.at(0).scalar];
    return std::vector<WireValue>{args.at(0)};
  };
  method.SetFixedServiceTime(Nanoseconds(500));
  def.methods[0] = std::move(method);
  return def;
}

Packet RawRequest(uint32_t src_ip, uint16_t src_port, uint16_t dst_port,
                  uint64_t request_id, uint64_t seq) {
  std::vector<uint8_t> args;
  MarshalArgs(MethodSignature{{WireType::kU64}},
              std::vector<WireValue>{WireValue::U64(seq)}, args);
  RpcMessage msg;
  msg.kind = MessageKind::kRequest;
  msg.service_id = 0;  // the NIC routes by dst port
  msg.method_id = 0;
  msg.request_id = request_id;
  msg.payload = std::move(args);
  std::vector<uint8_t> wire;
  EncodeRpcMessage(msg, wire);
  EthernetHeader eth;
  eth.src = {2, 0, 0, 0, 0, 1};
  eth.dst = {2, 0, 0, 0, 0, 2};
  Ipv4Header ip;
  ip.src = src_ip;
  ip.dst = MakeIpv4(10, 0, 0, 2);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  return BuildUdpFrame(eth, ip, udp, wire);
}

TEST(VfTest, PfIsVfZeroAndVfIdsAreSequential) {
  Machine machine(TenantMachineConfig());
  LauberhornNic& nic = *machine.lauberhorn_nic();
  EXPECT_EQ(nic.NumVfs(), 1u);  // the PF
  LauberhornNic::VfConfig a;
  a.name = "tenant-a";
  LauberhornNic::VfConfig b;
  b.name = "tenant-b";
  EXPECT_EQ(nic.CreateVf(a), 1u);
  EXPECT_EQ(nic.CreateVf(b), 2u);
  EXPECT_EQ(nic.NumVfs(), 3u);
  EXPECT_EQ(nic.vf_config(1).name, "tenant-a");
  EXPECT_EQ(nic.vf_config(2).name, "tenant-b");
}

TEST(VfTest, EndpointSliceCapRejectsOverAllocation) {
  Machine machine(TenantMachineConfig());
  machine.services().Add(ServiceRegistry::MakeEchoService(9, 7100));
  machine.services().Add(ServiceRegistry::MakeEchoService(8, 7200));
  LauberhornNic& nic = *machine.lauberhorn_nic();
  LauberhornNic::VfConfig vf;
  vf.name = "capped";
  vf.endpoint_limit = 2;
  const uint32_t id = nic.CreateVf(vf);

  EXPECT_TRUE(nic.AllocateEndpointOnVf(id, 9, 1, 0x5000, 0x7000, 0x4000000)
                  .has_value());
  EXPECT_TRUE(nic.AllocateEndpointOnVf(id, 9, 1, 0x5000, 0x7000, 0x4020000)
                  .has_value());
  // The slice is full: the third allocation is refused, and the refusal
  // does not consume a global endpoint slot.
  EXPECT_FALSE(nic.AllocateEndpointOnVf(id, 9, 1, 0x5000, 0x7000, 0x4040000)
                   .has_value());
  EXPECT_EQ(nic.vf_stats(id).endpoints, 2u);
  // The PF (VF 0) is never capped by a tenant's limit.
  EXPECT_TRUE(nic.AllocateEndpointOnVf(0, 8, 1, 0x5000, 0x7000, 0x4060000)
                  .has_value());
}

TEST(VfTest, VfQuotaShedsOnNicWithDedicatedReason) {
  Machine machine(TenantMachineConfig());
  std::unordered_map<uint64_t, uint32_t> execs;
  LauberhornNic::VfConfig vf;
  vf.name = "metered";
  vf.admission.enabled = true;
  vf.admission.quota_rps = 1e4;  // one token per 100us
  vf.admission.quota_burst = 2;
  const uint32_t id = machine.CreateVf(vf);
  const ServiceDef& svc = machine.AddService(CountedService(1, 7000, &execs), 1, id);
  machine.Start();
  machine.StartHotLoop(svc);
  machine.sim().RunUntil(Microseconds(100));

  uint64_t overloaded = 0, ok = 0;
  for (int i = 0; i < 20; ++i) {
    machine.sim().Schedule(Microseconds(i), [&machine, &svc, &overloaded, &ok, i]() {
      std::vector<WireValue> args = {WireValue::U64(static_cast<uint64_t>(i))};
      machine.client().Call(svc, 0, args,
                            [&](const RpcMessage& response, Duration) {
                              if (response.status == RpcStatus::kOk) {
                                ++ok;
                              } else if (response.status == RpcStatus::kOverloaded) {
                                ++overloaded;
                              }
                            });
    });
  }
  machine.sim().RunUntil(Milliseconds(5));

  // The burst admits a couple; the rest are shed on-NIC with the VF-quota
  // reason — distinct from the device-wide quota, which is disabled.
  const LauberhornNic::Stats& stats = machine.lauberhorn_nic()->stats();
  EXPECT_GT(ok, 0u);
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(ok + overloaded, 20u);
  EXPECT_GT(stats.sheds.vf_quota, 0u);
  EXPECT_EQ(stats.sheds.quota, 0u);
  EXPECT_EQ(machine.lauberhorn_nic()->vf_stats(id).sheds.vf_quota,
            stats.sheds.vf_quota);
  // Shed requests never reached a handler.
  EXPECT_EQ(execs.size(), ok);

  MetricsRegistry metrics;
  machine.ExportMetrics(metrics);
  EXPECT_EQ(metrics.Counter("overload/sheds_vf_quota"),
            stats.sheds.vf_quota);
  EXPECT_EQ(metrics.Counter("nic/vf" + std::to_string(id) + "/sheds_vf_quota"),
            stats.sheds.vf_quota);
}

TEST(VfTest, DedupNamespacesIsolateTenants) {
  Machine machine(TenantMachineConfig());
  std::unordered_map<uint64_t, uint32_t> execs_a, execs_b;
  const uint32_t vf_a = machine.CreateVf({.name = "tenant-a"});
  const uint32_t vf_b = machine.CreateVf({.name = "tenant-b"});
  const ServiceDef& svc_a =
      machine.AddService(CountedService(1, 7000, &execs_a), 1, vf_a);
  const ServiceDef& svc_b =
      machine.AddService(CountedService(2, 7001, &execs_b), 1, vf_b);
  machine.Start();
  machine.StartHotLoop(svc_a);
  machine.StartHotLoop(svc_b);
  machine.sim().RunUntil(Microseconds(100));

  // Two tenants happen to reuse the exact same (src ip, src port,
  // request id) — realistic, since tenants pick request ids independently.
  const uint32_t src_ip = MakeIpv4(10, 0, 0, 1);
  LauberhornNic& nic = *machine.lauberhorn_nic();
  nic.ReceivePacket(RawRequest(src_ip, 40000, 7000, /*request_id=*/77, /*seq=*/1));
  nic.ReceivePacket(RawRequest(src_ip, 40000, 7001, /*request_id=*/77, /*seq=*/2));
  machine.sim().RunUntil(Milliseconds(1));

  // Both executed: tenant A's dedup entry must not suppress tenant B's
  // identically-keyed request (cross-tenant suppression would also be a
  // side channel: tenant B could probe A's request ids).
  EXPECT_EQ(execs_a[1], 1u);
  EXPECT_EQ(execs_b[2], 1u);
  EXPECT_EQ(nic.stats().dup_drops_in_flight, 0u);
  EXPECT_EQ(nic.stats().dup_replays, 0u);

  // Control: *within* one tenant the same key still dedups.
  nic.ReceivePacket(RawRequest(src_ip, 40000, 7000, 77, 1));
  machine.sim().RunUntil(Milliseconds(2));
  EXPECT_EQ(execs_a[1], 1u);
  EXPECT_EQ(nic.stats().dup_drops_in_flight + nic.stats().dup_replays, 1u);
}

TEST(VfTest, ToeplitzRssSteersVfFlowsAcrossEndpoints) {
  Machine machine(TenantMachineConfig());
  std::unordered_map<uint64_t, uint32_t> execs;
  const uint32_t id = machine.CreateVf({.name = "spread"});
  const ServiceDef& svc =
      machine.AddService(CountedService(1, 7000, &execs), /*max_cores=*/2, id);
  machine.Start();
  machine.StartHotLoop(svc);
  machine.sim().RunUntil(Microseconds(100));

  // Distinct flows (the raw sender varies its src port) hash across the
  // tenant's endpoint replicas instead of all landing on one loop.
  LauberhornNic& nic = *machine.lauberhorn_nic();
  for (uint16_t i = 0; i < 40; ++i) {
    nic.ReceivePacket(RawRequest(MakeIpv4(10, 0, 0, 1),
                                 static_cast<uint16_t>(40000 + i), 7000,
                                 /*request_id=*/100 + i, /*seq=*/i));
  }
  machine.sim().RunUntil(Milliseconds(2));

  EXPECT_EQ(execs.size(), 40u);
  const LauberhornNic::VfStats& vstats = nic.vf_stats(id);
  EXPECT_EQ(vstats.rx_requests, 40u);
  // Every request was placed by the Toeplitz hash.
  EXPECT_EQ(vstats.rss_steered, 40u);
}

}  // namespace
}  // namespace lauberhorn
