#include "src/nic/lauberhorn_nic.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/fault/fault.h"
#include "src/nic/server_step.h"
#include "src/nic/shadow.h"

namespace lauberhorn {

LauberhornNic::LauberhornNic(Simulator& sim, CoherentInterconnect& interconnect,
                             PcieLink& pcie, ServiceRegistry& services,
                             RpcDedupCache& dedup, Config config)
    : sim_(sim),
      interconnect_(interconnect),
      pcie_(pcie),
      services_(services),
      config_(config),
      dedup_(dedup) {
  const size_t first_continuation = config_.num_kernel_channels + config_.num_endpoints;
  const size_t total = first_continuation + config_.num_continuations;
  endpoints_.resize(total);
  for (size_t i = 0; i < total; ++i) {
    endpoints_[i].id = static_cast<uint32_t>(i);
    endpoints_[i].is_kernel = i < config_.num_kernel_channels;
  }
  for (size_t i = first_continuation; i < total; ++i) {
    Endpoint& ep = endpoints_[i];
    ep.is_continuation = true;
    const auto port = static_cast<uint16_t>(config_.continuation_port_base +
                                            (i - first_continuation));
    port_to_endpoints_[port].push_back(ep.id);
    free_continuations_.push_back(ep.id);
  }
  const uint64_t homed_bytes = total * EndpointStrideLines() * line_size();
  home_id_ = interconnect_.RegisterHomeAgent(this, config_.base, homed_bytes,
                                             /*is_device=*/true);
  vfs_.resize(1);  // slot 0: the physical function
}

uint32_t LauberhornNic::CreateVf(VfConfig config) {
  const auto vf = static_cast<uint32_t>(vfs_.size());
  vfs_.push_back(VfState{std::move(config), std::nullopt, VfStats{}});
  if (shadow_ != nullptr) {
    shadow_->RecordVf(vf, vfs_.back().config);
  }
  return vf;
}

void LauberhornNic::RestoreVf(uint32_t vf, const VfConfig& config) {
  if (vfs_.size() <= vf) {
    vfs_.resize(vf + 1);
  }
  vfs_[vf].config = config;
  vfs_[vf].quota.reset();  // volatile: a reborn device starts a full bucket
}

std::optional<uint32_t> LauberhornNic::AllocateContinuation() {
  if (free_continuations_.empty()) {
    return std::nullopt;
  }
  const uint32_t id = free_continuations_.back();
  free_continuations_.pop_back();
  endpoints_[id].in_use = true;
  if (shadow_ != nullptr) {
    shadow_->RecordContinuationAllocated(id);
  }
  return id;
}

void LauberhornNic::FreeContinuation(uint32_t endpoint) {
  Endpoint& ep = endpoints_[endpoint];
  assert(ep.is_continuation);
  ep.in_use = false;
  ep.active = false;
  ep.pending.clear();
  ep.outstanding.reset();
  free_continuations_.push_back(endpoint);
  if (shadow_ != nullptr) {
    shadow_->RecordContinuationFreed(endpoint);
  }
}

void LauberhornNic::ClientTransmit(uint32_t continuation, uint32_t dst_ip,
                                   uint16_t dst_port, RpcMessage request) {
  if (!CheckDeviceUp()) {
    // Nested-RPC TX on a dead device: the request is lost. The caller parks
    // on its continuation line and spins on TRYAGAIN until recovery; nested
    // requests have no retransmit layer, so this core's RPC is forfeited
    // (documented §16 limitation — recovery benches avoid nested calls).
    ++stats_.drops_nic_down;
    return;
  }
  const Endpoint& cont = endpoints_[continuation];
  assert(cont.is_continuation && cont.in_use);
  const bool local = dst_ip == 0 || dst_ip == config_.own_ip;
  if (config_.crypto) {
    uint32_t service_id = request.service_id;  // remote: caller-provided
    if (local) {
      const auto target = port_to_endpoints_.find(dst_port);
      if (target != port_to_endpoints_.end() && !target->second.empty()) {
        service_id = endpoints_[target->second.front()].service_id;
      }
    }
    request.service_id = service_id;
    request.payload = SealPayload(DeriveKey(config_.crypto_root_key, service_id),
                                  request.request_id, request.payload);
  }
  const size_t first_continuation =
      config_.num_kernel_channels + config_.num_endpoints;
  const auto src_port = static_cast<uint16_t>(config_.continuation_port_base +
                                              (continuation - first_continuation));
  std::vector<uint8_t> payload;
  EncodeRpcMessage(request, payload);
  EthernetHeader eth;
  eth.src = {0x02, 0, 0, 0, 0, 0x02};
  eth.dst = {0x02, 0, 0, 0, 0, 0x02};
  Ipv4Header ip;
  ip.src = config_.own_ip;
  ip.dst = local ? config_.own_ip : dst_ip;
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  Packet out = BuildUdpFrame(eth, ip, udp, payload);
  if (local) {
    sim_.Schedule(config_.pipeline.tx_fixed + config_.hairpin_latency,
                  [this, out = std::move(out)]() mutable {
                    ReceivePacket(std::move(out));
                  });
    return;
  }
  sim_.Schedule(config_.pipeline.tx_fixed, [this, out = std::move(out)]() mutable {
    if (tx_wire_ != nullptr) {
      tx_wire_->Send(std::move(out));
    }
  });
}

LineAddr LauberhornNic::CtrlAddr(uint32_t endpoint, int parity) const {
  return config_.base +
         (static_cast<uint64_t>(endpoint) * EndpointStrideLines() +
          static_cast<uint64_t>(parity)) *
             line_size();
}

LineAddr LauberhornNic::AuxAddr(uint32_t endpoint, size_t index) const {
  return config_.base +
         (static_cast<uint64_t>(endpoint) * EndpointStrideLines() + 2 + index) *
             line_size();
}

LineData& LauberhornNic::StoredLine(LineAddr addr) {
  LineData& line = line_store_[addr];
  if (line.empty()) {
    line.resize(line_size(), 0);
  }
  return line;
}

LauberhornNic::LineRole LauberhornNic::Decode(LineAddr addr) {
  LineRole role;
  const uint64_t offset_lines = (addr - config_.base) / line_size();
  const uint64_t index = offset_lines / EndpointStrideLines();
  const uint64_t within = offset_lines % EndpointStrideLines();
  if (index >= endpoints_.size()) {
    return role;
  }
  role.endpoint = &endpoints_[index];
  if (within < 2) {
    role.is_ctrl = true;
    role.parity = static_cast<int>(within);
  } else {
    role.aux_index = within - 2;
  }
  return role;
}

// -- Host-facing control interface ---------------------------------------------

uint32_t LauberhornNic::AllocateEndpoint(uint32_t service_id, Pid pid, uint64_t code_ptr,
                                         uint64_t data_ptr, uint64_t dma_buffer_iova) {
  const auto id = AllocateEndpointOnVf(0, service_id, pid, code_ptr, data_ptr,
                                       dma_buffer_iova);
  assert(id.has_value() && "out of endpoints");
  return *id;
}

std::optional<uint32_t> LauberhornNic::AllocateEndpointOnVf(
    uint32_t vf, uint32_t service_id, Pid pid, uint64_t code_ptr,
    uint64_t data_ptr, uint64_t dma_buffer_iova) {
  assert(vf < vfs_.size() && "endpoint on unknown VF");
  if (next_service_endpoint_ >= config_.num_endpoints) {
    return std::nullopt;  // global endpoint table exhausted
  }
  VfState& owner = vfs_[vf];
  if (owner.config.endpoint_limit > 0 &&
      owner.stats.endpoints >= owner.config.endpoint_limit) {
    return std::nullopt;  // the tenant's slice is full; it cannot spill over
  }
  const uint32_t id =
      static_cast<uint32_t>(config_.num_kernel_channels) + next_service_endpoint_++;
  Endpoint& ep = endpoints_[id];
  ep.in_use = true;
  ep.service_id = service_id;
  ep.vf = vf;
  ep.pid = pid;
  ep.code_ptr = code_ptr;
  ep.data_ptr = data_ptr;
  ep.dma_buffer_iova = dma_buffer_iova;
  ++owner.stats.endpoints;
  const ServiceDef* service = services_.Find(service_id);
  assert(service != nullptr && "endpoint for unknown service");
  port_to_endpoints_[service->udp_port].push_back(id);
  if (shadow_ != nullptr) {
    shadow_->RecordEndpoint({id, service_id, pid, code_ptr, data_ptr,
                             dma_buffer_iova, vf});
  }
  return id;
}

uint32_t LauberhornNic::AllocateKernelChannel() {
  assert(next_kernel_channel_ < config_.num_kernel_channels && "out of channels");
  const uint32_t id = next_kernel_channel_++;
  endpoints_[id].in_use = true;
  if (shadow_ != nullptr) {
    shadow_->RecordKernelChannel(id);
  }
  return id;
}

// -- Crash / recovery (§16) ----------------------------------------------------

bool LauberhornNic::CheckDeviceUp() {
  if (device_up_ && faults_ != nullptr && faults_->NicDeviceCrashed()) {
    CrashNow();
  }
  return device_up_;
}

void LauberhornNic::CrashNow() {
  device_up_ = false;
  trace_.Emit(sim_.Now(), TraceEvent::kNicCrash, 0, 0);
  // Parked loads must not strand their cores: the coherence bus-timeout path
  // answers them with TRYAGAIN, exactly as a wedged line would. The runtime
  // loops re-park and keep getting TRYAGAINs (counted as crashed_polls)
  // until the host replays the shadow.
  for (Endpoint& ep : endpoints_) {
    if (ep.waiting.has_value()) {
      FillWaiting(ep, LineKind::kTryAgain);
    }
  }
  // Volatile device state dies with the firmware. Structural identity (line
  // addresses, continuation ports) is part of the address map and survives.
  for (Endpoint& ep : endpoints_) {
    const uint32_t id = ep.id;
    const bool is_kernel = ep.is_kernel;
    const bool is_continuation = ep.is_continuation;
    ep = Endpoint{};
    ep.id = id;
    ep.is_kernel = is_kernel;
    ep.is_continuation = is_continuation;
  }
  port_to_endpoints_.clear();
  free_continuations_.clear();
  const size_t first_continuation =
      config_.num_kernel_channels + config_.num_endpoints;
  for (size_t i = first_continuation; i < endpoints_.size(); ++i) {
    const auto port = static_cast<uint16_t>(config_.continuation_port_base +
                                            (i - first_continuation));
    port_to_endpoints_[port].push_back(endpoints_[i].id);
    free_continuations_.push_back(endpoints_[i].id);
  }
  line_store_.clear();
  cold_queue_.clear();
  cold_inflight_.clear();
  next_service_endpoint_ = 0;
  next_kernel_channel_ = 0;
  service_quota_.clear();
  cc_senders_.clear();
  // Dispatch-discipline queues are device state; their contents die here.
  // Each group's resolved config and its counters are kept: the config is
  // a pure function of the OS's ServiceDef/VfConfig, which replay restores
  // unchanged, and the counters persist like stats_.
  for (auto& [service_id, group] : groups_) {
    group.central.clear();
    group.sojourn = SojournGate{};
  }
  grant_ramp_until_ = 0;
  // VF partitions are device state too: the firmware that knew them is gone.
  // The shadow replays RestoreVf before any endpoint, so tenants come back
  // with their slice caps and quotas (buckets restart full).
  vfs_.clear();
  vfs_.resize(1);
}

void LauberhornNic::CompleteReset() {
  device_up_ = true;
  ++stats_.nic_resets;
  grant_ramp_until_ = sim_.Now() + config_.grant_ramp_window;
  trace_.Emit(sim_.Now(), TraceEvent::kNicReset, 0, 0);
}

void LauberhornNic::RestoreEndpoint(uint32_t id, uint32_t service_id, Pid pid,
                                    uint64_t code_ptr, uint64_t data_ptr,
                                    uint64_t dma_buffer_iova, uint32_t vf) {
  Endpoint& ep = endpoints_[id];
  ep.in_use = true;
  ep.service_id = service_id;
  assert(vf < vfs_.size() && "endpoint replayed before its VF");
  ep.vf = vf;
  ++vfs_[vf].stats.endpoints;
  ep.pid = pid;
  ep.code_ptr = code_ptr;
  ep.data_ptr = data_ptr;
  ep.dma_buffer_iova = dma_buffer_iova;
  const ServiceDef* service = services_.Find(service_id);
  assert(service != nullptr && "replayed endpoint for unknown service");
  port_to_endpoints_[service->udp_port].push_back(id);
  const uint32_t index = id - static_cast<uint32_t>(config_.num_kernel_channels);
  next_service_endpoint_ = std::max(next_service_endpoint_, index + 1);
}

void LauberhornNic::RestoreKernelChannel(uint32_t id) {
  endpoints_[id].in_use = true;
  next_kernel_channel_ = std::max(next_kernel_channel_, id + 1);
}

void LauberhornNic::RestoreContinuation(uint32_t id) {
  endpoints_[id].in_use = true;
  free_continuations_.erase(
      std::remove(free_continuations_.begin(), free_continuations_.end(), id),
      free_continuations_.end());
}

void LauberhornNic::RestoreAdmission(const AdmissionConfig& admission) {
  config_.admission = admission;
}

void LauberhornNic::ActivateEndpoint(uint32_t endpoint, int core) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint, core]() {
    Endpoint& ep = endpoints_[endpoint];
    ep.active = true;
    ep.active_core = core;
    ep.cold_dispatch_inflight = false;
  });
}

void LauberhornNic::DeactivateEndpoint(uint32_t endpoint) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint]() {
    Endpoint& ep = endpoints_[endpoint];
    ep.active = false;
    ep.active_core = -1;
    HandBack(ep);
  });
}

void LauberhornNic::NoteThreadPlacement(uint32_t endpoint, int core, bool running) {
  sim_.Schedule(interconnect_.config().cpu_device_hop,
                [this, endpoint, core, running]() {
                  Endpoint& ep = endpoints_[endpoint];
                  if (!ep.active) {
                    return;  // not in a loop; nothing to mirror
                  }
                  ep.active_core = running ? core : -1;
                });
}

void LauberhornNic::RequestRetire(uint32_t endpoint) {
  sim_.Schedule(interconnect_.config().cpu_device_hop, [this, endpoint]() {
    Endpoint& ep = endpoints_[endpoint];
    if (ep.waiting.has_value()) {
      FillWaiting(ep, LineKind::kRetire);
      ep.active = false;
      ep.active_core = -1;
      HandBack(ep);
    } else {
      ep.retire_requested = true;
    }
  });
}

void LauberhornNic::SoftwareTransmit(uint64_t request_id, RpcMessage response) {
  // Models the uncached-write handoff from the dispatcher runtime to the TX
  // engine: one device hop, then regular TX.
  sim_.Schedule(interconnect_.config().cpu_device_hop,
                [this, request_id, response = std::move(response)]() mutable {
                  auto it = cold_inflight_.find(request_id);
                  if (it == cold_inflight_.end()) {
                    return;  // duplicate or unknown; drop
                  }
                  OutstandingRequest done = std::move(it->second);
                  cold_inflight_.erase(it);
                  core_stats_[done.core].busy_time += sim_.Now() - done.delivered_at;
                  Endpoint& ep = endpoints_[done.request.endpoint];
                  ep.cold_dispatch_inflight = false;
                  TransmitResponse(done.request, std::move(response));
                  ContinueCold(ep);
                });
}

// -- RX pipeline ---------------------------------------------------------------

void LauberhornNic::ReceivePacket(Packet packet) {
  if (on_wire_rx) {
    on_wire_rx(packet);
  }
  const SimTime arrival = sim_.Now();
  const Duration front_cost = config_.pipeline.mac_rx +
                              3 * config_.pipeline.parse_per_header +
                              config_.pipeline.demux_lookup;
  sim_.Schedule(front_cost, [this, arrival, packet = std::move(packet)]() mutable {
    if (!CheckDeviceUp()) {
      // NIC firmware crash (§16): the whole device blackholes — endpoints,
      // admission, grants. The host watchdog + shadow replay end the outage;
      // client retransmits carry the RPCs over it.
      ++stats_.drops_nic_down;
      return;
    }
    if (faults_ != nullptr && !faults_->OsServiceUp()) {
      // OS crash window: the NIC is alive but nothing above it is. Inbound
      // traffic blackholes until the service stack restarts; the client's
      // retransmit/backoff layer carries RPCs over the outage.
      ++stats_.drops_service_down;
      return;
    }
    const auto frame = ParseUdpFrame(packet);
    if (!frame.has_value()) {
      ++stats_.drops_bad_frame;
      return;
    }
    const auto it = port_to_endpoints_.find(frame->udp.dst_port);
    if (it == port_to_endpoints_.end() || it->second.empty()) {
      ++stats_.drops_no_endpoint;
      return;
    }
    const uint32_t ep_id = PickEndpoint(it->second, frame->ip, frame->udp);
    Endpoint& ep = endpoints_[ep_id];
    trace_.Emit(sim_.Now(), TraceEvent::kWireRx, ep_id, 0);
    const auto request = DecodeRpcMessage(frame->payload);
    if (!request.has_value()) {
      ++stats_.drops_bad_frame;
      return;
    }
    if (ep.is_continuation) {
      // A nested RPC's reply (§6): deliver the response payload to whoever
      // parks on the continuation's control line. No service/method demux.
      if (request->kind != MessageKind::kResponse || !ep.in_use) {
        ++stats_.drops_no_endpoint;
        return;
      }
      PreparedRequest reply;
      reply.endpoint = ep_id;
      reply.service_id = request->service_id;
      reply.method_id = request->method_id;
      reply.request_id = request->request_id;
      reply.args = request->payload;
      if (config_.crypto && !reply.args.empty()) {
        auto opened = OpenPayload(
            DeriveKey(config_.crypto_root_key, request->service_id), reply.args);
        if (!opened.has_value()) {
          ++stats_.crypto_failures;
          return;
        }
        reply.args = std::move(*opened);
      }
      reply.eth = frame->eth;
      reply.ip = frame->ip;
      reply.udp = frame->udp;
      reply.wire_arrival = arrival;
      const Duration tail = config_.pipeline.UnmarshalCost(reply.args.size()) +
                            config_.pipeline.dispatch_decide;
      sim_.Schedule(tail, [this, reply = std::move(reply)]() mutable {
        DispatchPrepared(std::move(reply));
      });
      return;
    }
    if (request->kind != MessageKind::kRequest) {
      ++stats_.drops_bad_frame;
      return;
    }
    ++vfs_[ep.vf].stats.rx_requests;
    const ServiceDef* service = services_.Find(ep.service_id);
    const MethodDef* method =
        service != nullptr ? service->FindMethod(request->method_id) : nullptr;
    if (method == nullptr) {
      ++stats_.drops_no_endpoint;
      return;
    }
    // Inline crypto engine: open the sealed payload (§6).
    std::vector<uint8_t> plaintext = request->payload;
    Duration crypto_cost = 0;
    if (config_.crypto) {
      auto opened = OpenPayload(DeriveKey(config_.crypto_root_key, ep.service_id),
                                request->payload);
      if (!opened.has_value()) {
        ++stats_.crypto_failures;
        return;
      }
      plaintext = std::move(*opened);
      crypto_cost = config_.pipeline.CryptoCost(request->payload.size());
    }

    // NIC-side unmarshal/validation (the deserialization accelerator).
    std::vector<WireValue> args_check;
    if (!UnmarshalArgs(method->request_sig, plaintext, args_check)) {
      ++stats_.drops_bad_args;
      return;
    }

    // At-most-once admission, after every validation step that can drop the
    // request (an entry only becomes in-flight once the request is certain
    // to reach a handler or an explicit overload response).
    if (config_.dedup) {
      const uint64_t flow = VfFlowKey(ep_id, frame->ip.src, frame->udp.src_port);
      const RpcDedupCache::Screened screen = dedup_.Screen(flow, request->request_id);
      if (screen.verdict == RpcDedupCache::Verdict::kInFlight) {
        // The original is still executing; its response answers this copy.
        return;
      }
      if (screen.verdict == RpcDedupCache::Verdict::kCompleted) {
        PreparedRequest replay;
        replay.endpoint = ep_id;
        replay.service_id = request->service_id;
        replay.method_id = request->method_id;
        replay.request_id = request->request_id;
        replay.eth = frame->eth;
        replay.ip = frame->ip;
        replay.udp = frame->udp;
        replay.wire_arrival = 0;  // replays stay out of the latency histogram
        TransmitResponse(replay, *screen.cached);
        return;
      }
    }

    PreparedRequest prepared;
    prepared.endpoint = ep_id;
    prepared.service_id = request->service_id;
    prepared.method_id = request->method_id;
    prepared.request_id = request->request_id;
    prepared.args = std::move(plaintext);
    prepared.eth = frame->eth;
    prepared.ip = frame->ip;
    prepared.udp = frame->udp;
    prepared.wire_arrival = arrival;

    // ECN-capable sender: remember it for the grant denominator (§15).
    if (frame->ip.ecn != kEcnNotEct) {
      cc_senders_[frame->ip.src] = sim_.Now();
    }

    // Arrival-rate EWMA for the scaling policy (§5.2).
    if (ep.arrivals > 0) {
      const Duration gap = sim_.Now() - ep.last_arrival;
      if (gap > 0) {
        ep.arrival_rate.Update(static_cast<double>(kSecond) / static_cast<double>(gap));
      }
    }
    ep.last_arrival = sim_.Now();
    ++ep.arrivals;

    const Duration tail_cost = crypto_cost +
                               config_.pipeline.UnmarshalCost(prepared.args.size()) +
                               config_.pipeline.dispatch_decide;
    sim_.Schedule(tail_cost, [this, prepared = std::move(prepared)]() mutable {
      DispatchPrepared(std::move(prepared));
    });
  });
}

uint64_t LauberhornNic::VfFlowKey(uint32_t endpoint, uint32_t src_ip,
                                  uint16_t src_port) const {
  // DedupFlowKey occupies 48 bits; the owning VF id lands in the top 16, so
  // identical (src ip, src port, request id) tuples aimed at two tenants
  // live in disjoint dedup namespaces by construction.
  return (static_cast<uint64_t>(endpoints_[endpoint].vf) << 48) ^
         DedupFlowKey(src_ip, src_port);
}

uint32_t LauberhornNic::PickEndpoint(const std::vector<uint32_t>& candidates,
                                     const Ipv4Header& ip, const UdpHeader& udp) {
  if (candidates.size() == 1) {
    return candidates[0];
  }
  // Toeplitz RSS over the flow's 4-tuple: one flow keeps its endpoint, and a
  // tenant's flows spread across its slice (§17).
  const uint32_t hash = ToeplitzHash4Tuple(config_.rss_key, ip.src, ip.dst,
                                           udp.src_port, udp.dst_port);
  const uint32_t chosen = candidates[hash % candidates.size()];
  const uint32_t vf = endpoints_[chosen].vf;
  if (vf != 0) {
    ++vfs_[vf].stats.rss_steered;
  }
  return chosen;
}

void LauberhornNic::HandBack(Endpoint& ep) {
  DispatchGroup* group = ep.in_use ? CentralGroup(ep) : nullptr;
  if (group != nullptr) {
    // The unspent runway goes back to the *front* of the central queue in
    // its original order: it is older than anything queued behind it, and
    // FCFS across the group is the discipline's whole contract.
    group->stats.returned_on_retire += ep.pending.size();
    while (!ep.pending.empty()) {
      group->central.push_front(std::move(ep.pending.back()));
      ep.pending.pop_back();
    }
  }
  // d-FCFS: the whole private queue takes the kernel path at once, where the
  // dispatchers serve it in parallel. One request per completed cold
  // dispatch would leave the rest waiting on a loop restart that the scale
  // cooldown or the loop cap may withhold.
  std::deque<PreparedRequest> backlog = std::move(ep.pending);
  ep.pending.clear();
  for (PreparedRequest& request : backlog) {
    RouteCold(std::move(request));
  }
  // No member left to poll (all retired or degraded): the central queue
  // drains through the kernel path instead of stranding.
  if (group != nullptr && !AnyUsable(Members(ep.service_id))) {
    while (!group->central.empty()) {
      RouteCold(TakeCentralHead(*group, nullptr, group->stats.drained_cold));
    }
  }
}

void LauberhornNic::ContinueCold(Endpoint& ep) {
  if (ep.active) {
    return;  // the loop entered: it serves the rest hot
  }
  // Fig. 5 (1): the runtime may be promoting ep to a loop right now. Keep
  // the kernel path busy with the next request only, so a loop that enters
  // finds the rest still queued and serves it hot.
  if (!ep.pending.empty()) {
    PreparedRequest request = std::move(ep.pending.front());
    ep.pending.pop_front();
    RouteCold(std::move(request));
    return;
  }
  // Central disciplines: a coreless member keeps taking overflow past the
  // spill threshold (which is 0 once no member holds a core).
  DispatchGroup* group = ep.in_use ? CentralGroup(ep) : nullptr;
  if (group != nullptr && !group->central.empty() &&
      group->central.size() >= SpillThreshold(*group, ep.service_id)) {
    RouteCold(TakeCentralHead(*group, &ep, group->stats.drained_cold));
  }
}

// -- Dispatch disciplines (§18) -------------------------------------------------

LauberhornNic::DispatchGroup& LauberhornNic::EnsureGroup(const Endpoint& ep) {
  auto [it, inserted] = groups_.try_emplace(ep.service_id);
  const ServiceDef* service = inserted ? services_.Find(ep.service_id) : nullptr;
  if (service != nullptr) {
    it->second.config = service->dispatch;
  }
  return it->second;
}

const LauberhornNic::DispatchGroup* LauberhornNic::CentralGroup(
    const Endpoint& ep) const {
  if (ep.is_kernel || ep.is_continuation) {
    return nullptr;
  }
  auto it = groups_.find(ep.service_id);
  return it != groups_.end() && IsCentral(it->second.config) ? &it->second
                                                             : nullptr;
}

const std::vector<uint32_t>& LauberhornNic::Members(uint32_t service_id) const {
  static const std::vector<uint32_t> kNoMembers;
  const ServiceDef* service = services_.Find(service_id);
  if (service == nullptr) {
    return kNoMembers;
  }
  auto it = port_to_endpoints_.find(service->udp_port);
  return it != port_to_endpoints_.end() ? it->second : kNoMembers;
}

bool LauberhornNic::AnyUsable(const std::vector<uint32_t>& members) const {
  return std::any_of(members.begin(), members.end(), [this](uint32_t id) {
    const Endpoint& ep = endpoints_[id];
    return ep.in_use && ep.degraded_until <= sim_.Now() &&
           !ep.retire_requested &&
           (ep.active || ep.waiting.has_value() || ep.cold_dispatch_inflight ||
            ep.outstanding.has_value());
  });
}

size_t LauberhornNic::SpillThreshold(const DispatchGroup& group,
                                     uint32_t service_id) const {
  const size_t runway =
      group.config.kind == DispatchPolicyKind::kJbsq ? group.config.jbsq_k : 1;
  const std::vector<uint32_t>& members = Members(service_id);
  return runway * static_cast<size_t>(std::count_if(
                      members.begin(), members.end(), [this](uint32_t id) {
                        return HoldsCore(endpoints_[id]);
                      }));
}

LauberhornNic::Placement LauberhornNic::Place(Endpoint& ep,
                                              const DispatchGroup& group) {
  const SimTime now = sim_.Now();
  const size_t base = config_.params.endpoint_queue_depth;
  if (!IsCentral(group.config)) {
    // d-FCFS: the demuxed endpoint is the placement; its state picks the
    // path.
    if (ep.degraded_until > now) {
      // Demoted: the hot path was not making progress, so bypass it entirely
      // and let the kernel channels carry this request.
      ++stats_.degraded_dispatches;
      return {Placement::Kind::kCold, &ep};
    }
    const bool wedged = faults_ != nullptr && faults_->NicEndpointWedgedNow(ep.id);
    if (ep.waiting.has_value() && !wedged) {
      return {Placement::Kind::kHot, &ep};
    }
    if (ep.active || ep.outstanding.has_value() || !ep.pending.empty() ||
        ep.cold_dispatch_inflight || ep.waiting.has_value()) {
      return {Placement::Kind::kPrivate, &ep, EffectiveDepthLimit(ep, base)};
    }
    return {Placement::Kind::kCold, &ep};
  }
  const std::vector<uint32_t>& members = Members(ep.service_id);
  // Hot path first: any parked core in the group takes the request now
  // (lowest id wins, for replay determinism). This is what makes c-FCFS
  // work-conserving: a core only parks when it is provably idle.
  uint32_t parked = UINT32_MAX;
  for (uint32_t id : members) {
    const Endpoint& member = endpoints_[id];
    if (member.waiting.has_value() && !member.retire_requested &&
        member.degraded_until <= now && id < parked &&
        !(faults_ != nullptr && faults_->NicEndpointWedgedNow(id))) {
      parked = id;
    }
  }
  if (parked != UINT32_MAX) {
    return {Placement::Kind::kHot, &endpoints_[parked]};
  }
  // JBSQ(k): a busy core with spare credit takes the request onto its
  // private runway — fewest resident requests wins, ties to the lowest id.
  if (group.config.kind == DispatchPolicyKind::kJbsq) {
    uint32_t best = UINT32_MAX;
    size_t best_resident = SIZE_MAX;
    for (uint32_t id : members) {
      const Endpoint& member = endpoints_[id];
      if (!member.active || member.retire_requested ||
          member.degraded_until > now) {
        continue;
      }
      const size_t resident = Resident(member);
      if (resident < group.config.jbsq_k &&
          (resident < best_resident ||
           (resident == best_resident && id < best))) {
        best = id;
        best_resident = resident;
      }
    }
    if (best != UINT32_MAX) {
      Endpoint& target = endpoints_[best];
      return {Placement::Kind::kPrivate, &target,
              EffectiveDepthLimit(target, base)};
    }
  }
  // Spill (§5.2): once the central queue holds a full runway for every
  // member with a core, a member without one (lowest id) takes the request
  // through the kernel path, whose completion lets the runtime promote it.
  uint32_t coreless = UINT32_MAX;
  for (uint32_t id : members) {
    const Endpoint& member = endpoints_[id];
    if (!HoldsCore(member) && member.degraded_until <= now && id < coreless) {
      coreless = id;
    }
  }
  if (coreless != UINT32_MAX &&
      group.central.size() >= SpillThreshold(group, ep.service_id)) {
    return {Placement::Kind::kCold, &endpoints_[coreless]};
  }
  // Central queue, as long as someone in the group holds (or is acquiring)
  // a core. Nobody attached → cold, counted as degraded when a demoted
  // member is why.
  if (!AnyUsable(members)) {
    if (std::any_of(members.begin(), members.end(), [this, now](uint32_t id) {
          return endpoints_[id].degraded_until > now;
        })) {
      ++stats_.degraded_dispatches;
    }
    return {Placement::Kind::kCold, &ep};
  }
  // The shared queue absorbs what the per-endpoint queues would have held
  // jointly: one endpoint budget per member.
  return {Placement::Kind::kCentral, &ep,
          EffectiveDepthLimit(ep, base) * std::max<size_t>(1, members.size())};
}

void LauberhornNic::Retarget(PreparedRequest& request, const Endpoint& target,
                             DispatchPolicyStats& counters) {
  if (request.endpoint != target.id) {
    ++counters.retargets;
    request.endpoint = target.id;
  }
}

LauberhornNic::PreparedRequest LauberhornNic::TakeCentralHead(
    DispatchGroup& group, const Endpoint* target, uint64_t& counter) {
  PreparedRequest request = std::move(group.central.front());
  group.central.pop_front();
  if (target != nullptr) {
    Retarget(request, *target, group.stats);
  }
  ++counter;
  return request;
}

void LauberhornNic::ReplenishJbsq(Endpoint& ep) {
  DispatchGroup* group = CentralGroup(ep);
  if (group == nullptr || group->config.kind != DispatchPolicyKind::kJbsq ||
      !ep.active || ep.retire_requested || ep.degraded_until > sim_.Now()) {
    return;
  }
  while (Resident(ep) < group->config.jbsq_k && !group->central.empty()) {
    ep.pending.push_back(
        TakeCentralHead(*group, &ep, group->stats.jbsq_replenished));
  }
}

void LauberhornNic::DispatchPrepared(PreparedRequest request) {
  if (!CheckDeviceUp()) {
    // The crash landed between the RX front end and dispatch: this request
    // died inside the device pipeline. Its dedup entry was never delivered,
    // so the reset drops it and a retransmit executes fresh.
    ++stats_.drops_nic_down;
    return;
  }
  Endpoint& ep = endpoints_[request.endpoint];
  if (ep.is_continuation) {
    // One-shot reply delivery: fill the parked load, or hold until the core
    // parks (the reply can race the park by a few hops). Never cold.
    if (ep.waiting.has_value()) {
      ++stats_.hot_dispatches;
      trace_.Emit(sim_.Now(), TraceEvent::kDispatchHot, ep.id,
                  static_cast<uint32_t>(request.request_id));
      DeliverToWaiting(ep, std::move(request));
    } else {
      ep.pending.push_back(std::move(request));
    }
    return;
  }
  DispatchGroup& group = EnsureGroup(ep);
  const Placement placement = Place(ep, group);
  Endpoint& target = *placement.target;
  if (placement.kind == Placement::Kind::kCold) {
    // The cold gate watches the shared cold queue with the device-wide
    // sojourn targets, VF endpoints included.
    if (Admitted(target, request, cold_queue_, cold_sojourn_,
                 config_.admission.sojourn)) {
      Retarget(request, target, group.stats);
      RouteCold(std::move(request));
    }
    return;
  }
  const bool hot = placement.kind == Placement::Kind::kHot;
  const bool central = placement.kind == Placement::Kind::kCentral;
  std::deque<PreparedRequest>& queue = central ? group.central : target.pending;
  if (hot) {
    // The overload gates never fire here — a parked core means the system
    // has headroom — but the tenant's rate contract still binds: a VF whose
    // cores happen to be idle must not dispatch above its quota.
    const ShedReason vf_reason = VfQuotaCheck(target);
    if (vf_reason != ShedReason::kNone) {
      Shed(target, request, vf_reason);
      return;
    }
  } else {
    if (queue.size() >= placement.depth_limit) {
      Shed(target, request, ShedReason::kQueueFull);
      return;
    }
    // The sojourn gate watches the queue this request joins; a VF endpoint's
    // gate runs with the tenant's own targets, PF endpoints with the
    // device-wide ones.
    const AdmissionConfig& vf_admission = vfs_[target.vf].config.admission;
    const SojournConfig& sojourn = target.vf != 0 && vf_admission.enabled
                                       ? vf_admission.sojourn
                                       : config_.admission.sojourn;
    if (!Admitted(target, request, queue,
                  central ? group.sojourn : target.sojourn_gate, sojourn)) {
      return;
    }
  }
  Retarget(request, target, group.stats);
  ++(hot ? stats_.hot_dispatches : stats_.queued_dispatches);
  ++(hot       ? group.stats.hot_dispatches
     : central ? group.stats.central_queued
               : group.stats.local_queued);
  const SimTime now = sim_.Now();
  trace_.Emit(now, hot ? TraceEvent::kDispatchHot : TraceEvent::kDispatchQueued,
              target.id, static_cast<uint32_t>(request.request_id));
  if (spans_ != nullptr) {
    spans_->Record(request.request_id, SpanStage::kAdmitted, now);
    spans_->Record(request.request_id, SpanStage::kDispatched, now);
    spans_->Annotate(request.request_id,
                     hot ? SpanDispatch::kHot : SpanDispatch::kQueued, target.id);
  }
  if (!hot) {
    queue.push_back(std::move(request));
    return;
  }
  DeliverToWaiting(target, std::move(request));
  ReplenishJbsq(target);  // JBSQ: top the core's runway back up to k
}

bool LauberhornNic::AdmissionActive(const Endpoint& ep) const {
  return config_.admission.enabled ||
         (ep.vf != 0 && vfs_[ep.vf].config.admission.enabled);
}

size_t LauberhornNic::EffectiveDepthLimit(const Endpoint& ep,
                                          size_t base) const {
  size_t limit = base;
  if (config_.admission.enabled && config_.admission.queue_depth_limit > 0) {
    limit = std::min(limit, config_.admission.queue_depth_limit);
  }
  if (ep.vf != 0) {
    const AdmissionConfig& adm = vfs_[ep.vf].config.admission;
    if (adm.enabled && adm.queue_depth_limit > 0) {
      limit = std::min(limit, adm.queue_depth_limit);
    }
  }
  return limit;
}

ShedReason LauberhornNic::VfQuotaCheck(Endpoint& ep) {
  // Tenant boundary: the VF's own bucket meters the aggregate rate of
  // everything inside the slice, so one tenant's surge exhausts *its*
  // tokens, never a neighbor's (or the device-wide pool's) budget.
  if (ep.vf != 0) {
    VfState& owner = vfs_[ep.vf];
    const AdmissionConfig& adm = owner.config.admission;
    if (adm.enabled && adm.quota_rps > 0) {
      if (!owner.quota.has_value()) {
        owner.quota.emplace(adm.quota_rps, adm.quota_burst);
      }
      if (!owner.quota->TryTake(sim_.Now())) {
        return ShedReason::kVfQuota;
      }
    }
  }
  return ShedReason::kNone;
}

bool LauberhornNic::Admitted(Endpoint& ep, const PreparedRequest& request,
                             const std::deque<PreparedRequest>& queue,
                             SojournGate& gate, const SojournConfig& sojourn) {
  if (!AdmissionActive(ep)) {
    return true;
  }
  const SimTime now = sim_.Now();
  ShedReason reason = VfQuotaCheck(ep);
  if (reason == ShedReason::kNone && config_.admission.enabled &&
      config_.admission.quota_rps > 0) {
    TokenBucket& bucket =
        service_quota_
            .try_emplace(ep.service_id, config_.admission.quota_rps,
                         config_.admission.quota_burst)
            .first->second;
    if (!bucket.TryTake(now)) {
      reason = ShedReason::kQuota;
    }
  }
  if (reason == ShedReason::kNone) {
    // CoDel-style check: sojourn time of the queue head (wire arrival to
    // now) of the queue this request would join.
    const Duration oldest =
        queue.empty() ? 0 : now - queue.front().wire_arrival;
    if (gate.ShouldShed(now, oldest, sojourn)) {
      reason = ShedReason::kSojourn;
    }
  }
  if (reason == ShedReason::kNone) {
    return true;
  }
  Shed(ep, request, reason);
  return false;
}

void LauberhornNic::Shed(Endpoint& ep, const PreparedRequest& request,
                         ShedReason reason) {
  stats_.sheds.Count(reason);
  ep.sheds.Count(reason);
  vfs_[ep.vf].stats.sheds.Count(reason);
  trace_.Emit(sim_.Now(), TraceEvent::kDrop, ep.id,
              static_cast<uint32_t>(reason));
  // TransmitResponse aborts the dedup entry on kOverloaded, so a later
  // retransmit of this id may still execute (at most once).
  TransmitResponse(request, ReplyTo(request.service_id, request.method_id,
                                    request.request_id, RpcStatus::kOverloaded));
}

uint16_t LauberhornNic::ComputeGrant(const Endpoint& ep) {
  const SimTime now = sim_.Now();
  // Prune senders whose last request predates the window, then count the
  // survivors — the grant denominator. The map stays small (one entry per
  // live sender machine), so the linear sweep is cheap.
  size_t active = 0;
  for (auto it = cc_senders_.begin(); it != cc_senders_.end();) {
    if (now - it->second > config_.grant_sender_window) {
      it = cc_senders_.erase(it);
    } else {
      ++active;
      ++it;
    }
  }
  const size_t limit =
      EffectiveDepthLimit(ep, config_.params.endpoint_queue_depth);
  // Under a central discipline the backlog a new sender would join lives in
  // the service's shared queue, so grants must see it; per-endpoint
  // disciplines keep the private-queue depth.
  const size_t depth = DispatchBacklog(ep.id);
  const size_t headroom = depth >= limit ? 0 : limit - depth;
  size_t share = headroom / std::max<size_t>(1, active);
  if (grant_ramp_until_ > now) {
    // Post-reset ramp (§16): senders may still hold grants issued by the
    // pre-crash NIC against queues that no longer exist. Capping fresh
    // grants at the unscheduled window until the ramp expires bounds the
    // combined over-admission to one window per sender.
    share = std::min<size_t>(share, config_.grant_reset_cap);
  }
  return static_cast<uint16_t>(
      std::min<size_t>(share, config_.grant_max));
}

void LauberhornNic::RouteCold(PreparedRequest request) {
  Endpoint& ep = endpoints_[request.endpoint];
  if (spans_ != nullptr) {
    // First-write-wins keeps the original stamps when a queued request is
    // drained here after a degradation or a core retire.
    spans_->Record(request.request_id, SpanStage::kAdmitted, sim_.Now());
    spans_->Record(request.request_id, SpanStage::kDispatched, sim_.Now());
    spans_->Annotate(request.request_id, SpanDispatch::kCold, ep.id);
  }
  for (size_t i = 0; i < config_.num_kernel_channels; ++i) {
    Endpoint& channel = endpoints_[i];
    if (channel.in_use && channel.waiting.has_value()) {
      ep.cold_dispatch_inflight = true;
      trace_.Emit(sim_.Now(), TraceEvent::kDispatchCold, ep.id,
                  static_cast<uint32_t>(request.request_id));
      ++stats_.cold_dispatches;
      DeliverToKernelChannel(channel, std::move(request));
      return;
    }
  }
  // The shared cold queue is bounded: past the limit the NIC sheds
  // rather than queueing without bound (the cold path is already the slow
  // path; unbounded growth just manufactures timeouts). The admission depth
  // limit applies here too — a request admitted into a long cold queue still
  // pays its full drain time, which no later gate can undo.
  size_t cold_limit = config_.params.cold_queue_depth;
  if (config_.admission.enabled && config_.admission.queue_depth_limit > 0) {
    cold_limit = std::min(cold_limit, config_.admission.queue_depth_limit);
  }
  if (cold_queue_.size() >= cold_limit) {
    Shed(ep, request, ShedReason::kQueueFull);
    return;
  }
  ep.cold_dispatch_inflight = true;
  trace_.Emit(sim_.Now(), TraceEvent::kDispatchCold, ep.id,
              static_cast<uint32_t>(request.request_id));
  ++stats_.cold_queued;
  cold_queue_.push_back(std::move(request));
  if (on_need_dispatcher) {
    ++stats_.dispatcher_wakeups;
    on_need_dispatcher();
  }
}

DispatchLine LauberhornNic::BuildDispatch(const Endpoint& ep,
                                          const PreparedRequest& request,
                                          bool kernel_channel) {
  const Endpoint& target = endpoints_[request.endpoint];
  DispatchLine line;
  line.kind = kernel_channel ? LineKind::kKernelDispatch : LineKind::kRpcDispatch;
  line.method_id = request.method_id;
  line.service_id = target.service_id;
  line.request_id = request.request_id;
  line.code_ptr = target.code_ptr;
  line.data_ptr = target.data_ptr;
  line.arg_len = static_cast<uint32_t>(request.args.size());
  line.endpoint_id = static_cast<uint16_t>(request.endpoint);
  line.pid = target.pid;

  const size_t inline_cap = DispatchLine::InlineCapacity(line_size());
  const size_t total_cap = inline_cap + AuxCapacityBytes();
  bool use_dma = false;
  switch (config_.large_policy) {
    case LargeTransferPolicy::kForceDma:
      use_dma = request.args.size() > inline_cap;
      break;
    case LargeTransferPolicy::kForceCacheline:
      use_dma = false;
      break;
    case LargeTransferPolicy::kAuto:
      use_dma = request.args.size() > config_.params.dma_fallback_bytes ||
                request.args.size() > total_cap;
      break;
  }
  if (use_dma && target.dma_buffer_iova == 0) {
    use_dma = false;  // no buffer registered; fall back to lines
  }
  if (use_dma) {
    line.via_dma = true;
    line.data_ptr = target.dma_buffer_iova;
    return line;
  }
  assert(request.args.size() <= total_cap && "args exceed AUX capacity");
  const size_t inline_bytes = std::min(inline_cap, request.args.size());
  line.inline_args.assign(request.args.begin(), request.args.begin() + inline_bytes);
  // Overflow goes into the line_store AUX lines of the endpoint whose lines
  // carry this delivery (the kernel channel's for cold dispatch).
  size_t remaining = request.args.size() - inline_bytes;
  size_t aux = 0;
  size_t cursor = inline_bytes;
  while (remaining > 0) {
    const size_t chunk = std::min(remaining, line_size());
    LineData& aux_line = StoredLine(AuxAddr(ep.id, aux));
    std::fill(aux_line.begin(), aux_line.end(), 0);
    std::copy(request.args.begin() + cursor, request.args.begin() + cursor + chunk,
              aux_line.begin());
    cursor += chunk;
    remaining -= chunk;
    ++aux;
  }
  line.aux_lines = static_cast<uint8_t>(aux);
  return line;
}

void LauberhornNic::DeliverToWaiting(Endpoint& ep, PreparedRequest request) {
  assert(ep.waiting.has_value());
  if (spans_ != nullptr && !ep.is_continuation) {
    spans_->Record(request.request_id, SpanStage::kDelivered, sim_.Now());
  }
  if (config_.dedup && !ep.is_continuation) {
    // The request is about to reach a handler: from here on a reset must
    // pin it in flight (executed-but-response-lost), never re-run it.
    dedup_.MarkDelivered(
        VfFlowKey(request.endpoint, request.ip.src, request.udp.src_port),
        request.request_id);
  }
  ep.tryagain_streak = 0;  // the hot path is making progress
  WaitingLoad waiting = std::move(*ep.waiting);
  ep.waiting.reset();
  if (waiting.tryagain_event != kInvalidEventId) {
    sim_.Cancel(waiting.tryagain_event);
  }
  const DispatchLine dispatch = BuildDispatch(ep, request, /*kernel_channel=*/false);
  LineData line = dispatch.Encode(line_size());
  StoredLine(CtrlAddr(ep.id, waiting.parity)) = line;
  const int core = static_cast<int>(waiting.requester);
  if (!ep.is_continuation) {
    ++core_stats_[core].dispatches;
  }
  ep.outstanding =
      OutstandingRequest{waiting.parity, std::move(request), sim_.Now(), core};

  if (dispatch.via_dma) {
    ++stats_.dma_fallback_rx;
    // Push the args into host memory before releasing the core.
    pcie_.DeviceDmaWrite(dispatch.data_ptr, ep.outstanding->request.args,
                         [fill = std::move(waiting.fill), line = std::move(line)]() mutable {
                           fill(std::move(line));
                         });
    return;
  }
  waiting.fill(std::move(line));
}

void LauberhornNic::DeliverToKernelChannel(Endpoint& channel, PreparedRequest request) {
  assert(channel.waiting.has_value());
  if (spans_ != nullptr) {
    spans_->Record(request.request_id, SpanStage::kDelivered, sim_.Now());
  }
  if (config_.dedup) {
    dedup_.MarkDelivered(
        VfFlowKey(request.endpoint, request.ip.src, request.udp.src_port),
        request.request_id);
  }
  WaitingLoad waiting = std::move(*channel.waiting);
  channel.waiting.reset();
  if (waiting.tryagain_event != kInvalidEventId) {
    sim_.Cancel(waiting.tryagain_event);
  }
  const DispatchLine dispatch = BuildDispatch(channel, request, /*kernel_channel=*/true);
  LineData line = dispatch.Encode(line_size());
  StoredLine(CtrlAddr(channel.id, waiting.parity)) = line;
  const uint64_t request_id = request.request_id;
  const uint64_t dma_iova = dispatch.data_ptr;
  std::vector<uint8_t> args = request.args;
  // The dispatcher's core is occupied until SoftwareTransmit: kernel-path
  // deliveries count in the per-core occupancy like hot ones.
  const int core = static_cast<int>(waiting.requester);
  ++core_stats_[core].dispatches;
  cold_inflight_[request_id] =
      OutstandingRequest{waiting.parity, std::move(request), sim_.Now(), core};

  if (dispatch.via_dma) {
    ++stats_.dma_fallback_rx;
    pcie_.DeviceDmaWrite(dma_iova, args,
                         [fill = std::move(waiting.fill), line = std::move(line)]() mutable {
                           fill(std::move(line));
                         });
    return;
  }
  waiting.fill(std::move(line));
}

void LauberhornNic::FillWaiting(Endpoint& ep, LineKind kind) {
  assert(ep.waiting.has_value());
  WaitingLoad waiting = std::move(*ep.waiting);
  ep.waiting.reset();
  if (waiting.tryagain_event != kInvalidEventId) {
    sim_.Cancel(waiting.tryagain_event);
  }
  DispatchLine line;
  line.kind = kind;
  line.endpoint_id = static_cast<uint16_t>(ep.id);
  if (kind == LineKind::kTryAgain) {
    ++stats_.tryagains;
    trace_.Emit(sim_.Now(), TraceEvent::kTryAgain, ep.id);
  } else if (kind == LineKind::kRetire) {
    ++stats_.retires;
    trace_.Emit(sim_.Now(), TraceEvent::kRetire, ep.id);
  }
  waiting.fill(line.Encode(line_size()));
}

void LauberhornNic::ArmTryagain(Endpoint& ep) {
  assert(ep.waiting.has_value());
  const Duration timeout = ep.is_kernel ? config_.params.kernel_tryagain_timeout
                                        : config_.params.tryagain_timeout;
  const uint32_t ep_id = ep.id;
  ep.waiting->tryagain_event = sim_.Schedule(timeout, [this, ep_id]() {
    Endpoint& endpoint = endpoints_[ep_id];
    if (!endpoint.waiting.has_value()) {
      return;  // already answered
    }
    endpoint.waiting->tryagain_event = kInvalidEventId;
    if (!endpoint.is_kernel) {
      if (DispatchBacklog(ep_id) > 0) {
        // TRYAGAIN with work queued — on the endpoint's own queue or (for
        // c-FCFS / JBSQ) the service's central queue: the hot path is not
        // delivering (the wedge signature). Consecutive occurrences demote
        // the endpoint.
        ++endpoint.tryagain_streak;
        if (endpoint.tryagain_streak >= config_.params.degrade_tryagain_threshold) {
          DegradeEndpoint(endpoint);
        }
      } else {
        endpoint.tryagain_streak = 0;  // idle endpoint, not a wedge
      }
    }
    FillWaiting(endpoint, LineKind::kTryAgain);
    if (endpoint.is_kernel) {
      // The dispatcher kthread will yield back to the scheduler.
      endpoint.active = false;
    }
  });
}

void LauberhornNic::DegradeEndpoint(Endpoint& ep) {
  ep.degraded_until = sim_.Now() + config_.params.degrade_backoff;
  trace_.Emit(sim_.Now(), TraceEvent::kDegrade, ep.id, ep.tryagain_streak);
  ep.tryagain_streak = 0;
  ++stats_.degradations;
  // degraded_until is already set, so this endpoint no longer counts as
  // usable: its backlog stops waiting on a hot path that is not progressing.
  // New arrivals follow via Place's degraded checks until the backoff ends.
  HandBack(ep);
}

// -- Coherence-side (home agent) --------------------------------------------------

void LauberhornNic::OnHomeRead(AgentId requester, LineAddr addr, bool exclusive,
                               FillFn fill) {
  LineRole role = Decode(addr);
  if (role.endpoint == nullptr) {
    fill(LineData(line_size(), 0));
    return;
  }
  if (exclusive || !role.is_ctrl) {
    // RFO for a response write, or an AUX-line read: answer from the store.
    fill(StoredLine(addr));
    return;
  }
  HandleCtrlPoll(*role.endpoint, role.parity, requester, std::move(fill));
}

void LauberhornNic::HandleCtrlPoll(Endpoint& ep, int parity, AgentId requester,
                                   FillFn fill) {
  if (!CheckDeviceUp()) {
    // Dead device: the fill engine is gone, but the bus-timeout machinery
    // still answers parked loads with TRYAGAIN, so polling cores spin
    // through the outage instead of stranding. The burst of crashed_polls
    // is the watchdog's second detection signal.
    ++stats_.crashed_polls;
    ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
    ArmTryagain(ep);
    return;
  }
  // A load on the *other* control line signals that the response to the
  // outstanding request is ready in its line: collect and transmit it.
  if (ep.outstanding.has_value() && ep.outstanding->parity != parity) {
    OutstandingRequest done = std::move(*ep.outstanding);
    ep.outstanding.reset();
    if (done.core >= 0) {
      // Handler-busy interval for the per-core occupancy metrics (§18).
      core_stats_[done.core].busy_time += sim_.Now() - done.delivered_at;
    }
    CollectResponse(ep, std::move(done));
  }
  if (ep.retire_requested) {
    ep.retire_requested = false;
    ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
    FillWaiting(ep, LineKind::kRetire);
    ep.active = false;
    ep.active_core = -1;
    HandBack(ep);  // a retired core must not keep requests hostage
    return;
  }
  // The NIC can infer from the load that this core is polling here (§4).
  ep.active = true;
  ep.active_core = static_cast<int>(requester);

  ep.waiting = WaitingLoad{std::move(fill), requester, parity, kInvalidEventId};
  if (ep.is_kernel) {
    if (!cold_queue_.empty()) {
      PreparedRequest request = std::move(cold_queue_.front());
      cold_queue_.pop_front();
      ++stats_.cold_dispatches;
      DeliverToKernelChannel(ep, std::move(request));
      return;
    }
  } else if (faults_ != nullptr && faults_->NicEndpointWedged(ep.id)) {
    // Wedge fault: the fill engine for this endpoint's CONTROL lines is
    // stuck. Work stays queued (DispatchPrepared sees the wedge too) and the
    // parked core times out with TRYAGAIN; enough of those in a row trips
    // the degradation detector.
    ++stats_.wedged_polls;
  } else {
    // JBSQ: response collection freed a credit — refill the private runway
    // from the central queue before serving, so the core stays k-deep.
    ReplenishJbsq(ep);
    if (!ep.pending.empty()) {
      PreparedRequest request = std::move(ep.pending.front());
      ep.pending.pop_front();
      ++stats_.hot_dispatches;
      DeliverToWaiting(ep, std::move(request));
      return;
    }
    // c-FCFS / JBSQ: an idle parked core pulls the central head directly.
    DispatchGroup* group = CentralGroup(ep);
    if (group != nullptr && !group->central.empty() &&
        ep.degraded_until <= sim_.Now()) {
      PreparedRequest request =
          TakeCentralHead(*group, &ep, group->stats.central_pulled);
      ++stats_.hot_dispatches;
      DeliverToWaiting(ep, std::move(request));
      ReplenishJbsq(ep);
      return;
    }
  }
  ArmTryagain(ep);
}

void LauberhornNic::CollectResponse(Endpoint& ep, OutstandingRequest outstanding) {
  const LineAddr ctrl = CtrlAddr(ep.id, outstanding.parity);
  const uint32_t ep_id = ep.id;
  interconnect_.FetchExclusive(
      home_id_, ctrl, StoredLine(ctrl),
      [this, ep_id, ctrl, outstanding = std::move(outstanding)](LineData data) mutable {
        StoredLine(ctrl) = data;
        const auto response_line = ResponseLine::Decode(data);
        RpcMessage response =
            ReplyTo(outstanding.request.service_id, outstanding.request.method_id,
                    outstanding.request.request_id);
        if (!response_line.has_value() ||
            response_line->kind != LineKind::kResponse) {
          response.status = RpcStatus::kInternal;
          TransmitResponse(outstanding.request, std::move(response));
          return;
        }
        response.status = static_cast<RpcStatus>(response_line->status);
        Endpoint& ep2 = endpoints_[ep_id];

        if (response_line->via_dma) {
          ++stats_.dma_fallback_tx;
          pcie_.DeviceDmaRead(
              ep2.dma_buffer_iova + kDmaBufferRespOffset, response_line->resp_len,
              [this, outstanding = std::move(outstanding),
               response = std::move(response)](std::vector<uint8_t> payload) mutable {
                response.payload = std::move(payload);
                TransmitResponse(outstanding.request, std::move(response));
              });
          return;
        }

        response.payload = response_line->inline_payload;
        const size_t remaining =
            response_line->resp_len > response.payload.size()
                ? response_line->resp_len - response.payload.size()
                : 0;
        if (remaining == 0) {
          TransmitResponse(outstanding.request, std::move(response));
          return;
        }
        // Pull the AUX lines the CPU wrote, keeping at most
        // device_fetch_window transactions in flight (the fetch engine's
        // parallelism bounds multi-line response bandwidth, §6).
        const size_t aux_count = (remaining + line_size() - 1) / line_size();
        auto payload_parts = std::make_shared<std::vector<LineData>>(aux_count);
        auto pending = std::make_shared<size_t>(aux_count);
        auto next_index = std::make_shared<size_t>(0);
        auto meta = std::make_shared<PreparedRequest>(outstanding.request);
        auto resp = std::make_shared<RpcMessage>(std::move(response));
        const size_t resp_len = response_line->resp_len;
        auto issue = std::make_shared<Callback>();
        *issue = [this, ep_id, aux_count, payload_parts, pending, next_index, meta,
                  resp, resp_len, issue]() {
          if (*next_index >= aux_count) {
            return;
          }
          const size_t i = (*next_index)++;
          const LineAddr aux_addr = AuxAddr(ep_id, i);
          interconnect_.FetchExclusive(
              home_id_, aux_addr, StoredLine(aux_addr),
              [this, i, payload_parts, pending, meta, resp, resp_len, aux_addr,
               issue](LineData aux_data) {
                StoredLine(aux_addr) = aux_data;
                (*payload_parts)[i] = std::move(aux_data);
                if (--*pending == 0) {
                  for (const LineData& part : *payload_parts) {
                    resp->payload.insert(resp->payload.end(), part.begin(), part.end());
                  }
                  resp->payload.resize(resp_len);
                  TransmitResponse(*meta, std::move(*resp));
                  return;
                }
                (*issue)();  // refill the window
              });
        };
        const size_t window =
            std::min(aux_count, interconnect_.config().device_fetch_window);
        for (size_t w = 0; w < window; ++w) {
          (*issue)();
        }
      });
}

void LauberhornNic::TransmitResponse(const PreparedRequest& meta, RpcMessage response) {
  if (!CheckDeviceUp()) {
    // A response path (cold SoftwareTransmit, DMA completion, AUX fetch)
    // that outlived the firmware: the TX engine is dead, the response is
    // lost. The reset's pinned-delivered rule keeps at-most-once intact.
    ++stats_.drops_nic_down;
    return;
  }
  const bool served = !endpoints_[meta.endpoint].is_continuation;
  if (served) {
    ++vfs_[endpoints_[meta.endpoint].vf].stats.responses;
  }
  if (config_.dedup && served) {
    const uint64_t flow = VfFlowKey(meta.endpoint, meta.ip.src, meta.udp.src_port);
    if (response.status == RpcStatus::kOverloaded) {
      // Shed, not executed: forget the entry so a retransmit runs fresh.
      dedup_.Abort(flow, response.request_id);
    } else {
      // Cache pre-seal so replays re-seal with a fresh pass through this
      // function. Idempotent for replayed responses.
      dedup_.Complete(flow, response.request_id, response);
    }
  }
  // Congestion feedback (§15), attached after dedup caching so a replayed
  // response carries the grant/echo of its *replay* time, not a stale one.
  if (meta.ip.ecn != kEcnNotEct && served) {
    if (meta.ip.ecn == kEcnCe) {
      // The request crossed a congested fabric queue: ReplyFrame echoes the
      // mark so the sender's DCTCP loop sees it.
      ++stats_.ecn_echoes;
    }
    if (config_.grants_enabled && response.status != RpcStatus::kOverloaded) {
      // A shed is push-back, not an invitation: grants ride only on
      // successful responses.
      response.flags |= kLrpcFlagGrant;
      response.grant = ComputeGrant(endpoints_[meta.endpoint]);
      ++stats_.grants_issued;
    }
  }
  Duration crypto_cost = 0;
  if (config_.crypto && !response.payload.empty()) {
    const uint32_t service_id =
        served ? endpoints_[meta.endpoint].service_id : response.service_id;
    response.payload = SealPayload(DeriveKey(config_.crypto_root_key, service_id),
                                   response.request_id ^ 0x5a5a, response.payload);
    crypto_cost = config_.pipeline.CryptoCost(response.payload.size());
  }
  trace_.Emit(sim_.Now(), TraceEvent::kWireTx, meta.endpoint,
              static_cast<uint32_t>(response.request_id));
  Packet out = ReplyFrame(meta.eth, meta.ip, meta.udp, std::move(response));
  if (meta.wire_arrival > 0) {
    Endpoint& ep = endpoints_[meta.endpoint];
    if (ep.latency == nullptr) {
      ep.latency = std::make_unique<Histogram>();
    }
    ep.latency->Record(sim_.Now() - meta.wire_arrival);
  }
  if (meta.ip.src == config_.own_ip) {
    // Reply to a nested (hairpinned) request: back through the RX pipeline.
    sim_.Schedule(crypto_cost + config_.pipeline.tx_fixed + config_.hairpin_latency,
                  [this, out = std::move(out)]() mutable {
                    ++stats_.responses_sent;
                    ReceivePacket(std::move(out));
                  });
    return;
  }
  sim_.Schedule(crypto_cost + config_.pipeline.tx_fixed,
                [this, out = std::move(out)]() mutable {
    ++stats_.responses_sent;
    if (on_wire_tx) {
      on_wire_tx(out);
    }
    if (tx_wire_ != nullptr) {
      tx_wire_->Send(std::move(out));
    }
  });
}

void LauberhornNic::OnHomeWriteBack(AgentId /*from*/, LineAddr addr, LineData data) {
  data.resize(line_size());
  line_store_[addr] = std::move(data);
}

void LauberhornNic::OnHomeUncachedWrite(AgentId /*from*/, LineAddr addr, size_t offset,
                                        std::vector<uint8_t> data) {
  LineData& line = StoredLine(addr);
  assert(offset + data.size() <= line.size());
  std::copy(data.begin(), data.end(), line.begin() + static_cast<long>(offset));
}

size_t LauberhornNic::QueueDepth(uint32_t endpoint) const {
  return endpoints_[endpoint].pending.size();
}

size_t LauberhornNic::DispatchBacklog(uint32_t endpoint) const {
  const Endpoint& ep = endpoints_[endpoint];
  const DispatchGroup* group = CentralGroup(ep);
  return ep.pending.size() + (group != nullptr ? group->central.size() : 0);
}

size_t LauberhornNic::CentralQueueDepth(uint32_t service_id) const {
  const std::vector<uint32_t>& members = Members(service_id);
  const DispatchGroup* group =
      members.empty() ? nullptr : CentralGroup(endpoints_[members.front()]);
  return group != nullptr ? group->central.size() : 0;
}

size_t LauberhornNic::ServiceBacklog(uint32_t service_id) const {
  size_t depth = CentralQueueDepth(service_id);
  for (uint32_t id : Members(service_id)) {
    depth += endpoints_[id].pending.size();
  }
  return depth;
}

DispatchPolicyConfig LauberhornNic::ServicePolicy(uint32_t service_id) {
  const ServiceDef* service = services_.Find(service_id);
  if (service == nullptr) {
    return DispatchPolicyConfig{};
  }
  const std::vector<uint32_t>& members = Members(service_id);
  return members.empty() ? service->dispatch
                         : EnsureGroup(endpoints_[members.front()]).config;
}

std::vector<std::pair<DispatchPolicyKind, DispatchPolicyStats>>
LauberhornNic::PolicyStatsSnapshot() const {
  std::map<DispatchPolicyKind, DispatchPolicyStats> by_kind;
  for (const auto& [service_id, group] : groups_) {
    by_kind[group.config.kind] += group.stats;
  }
  return {by_kind.begin(), by_kind.end()};
}

LauberhornNic::Stats LauberhornNic::stats() const {
  // The at-most-once counters live in the host-owned dedup table; the NIC
  // reports them instead of keeping a second copy.
  Stats out = stats_;
  out.dup_drops_in_flight = dedup_.stats().duplicates_in_flight;
  out.dup_replays = dedup_.stats().duplicates_replayed;
  return out;
}

std::map<int, LauberhornNic::CoreOccupancy>
LauberhornNic::CoreOccupancySnapshot() const {
  std::map<int, CoreOccupancy> out = core_stats_;
  for (const Endpoint& ep : endpoints_) {
    if (ep.in_use && ep.active && ep.active_core >= 0) {
      out[ep.active_core].queue_depth += ep.pending.size();
    }
  }
  return out;
}

double LauberhornNic::ArrivalRate(uint32_t endpoint) const {
  return endpoints_[endpoint].arrival_rate.value();
}

bool LauberhornNic::EndpointActive(uint32_t endpoint) const {
  return endpoints_[endpoint].active;
}

std::string LauberhornNic::DebugReport() {
  std::string out = "LauberhornNic endpoints:\n";
  char line[256];
  for (const Endpoint& ep : endpoints_) {
    if (!ep.in_use) {
      continue;
    }
    const char* kind = ep.is_kernel ? "kernel" : ep.is_continuation ? "cont" : "svc";
    std::snprintf(line, sizeof(line),
                  "  ep=%u kind=%-6s svc=%u pid=%u %s%s queue=%zu rate=%.0f/s %s\n",
                  ep.id, kind, ep.service_id, ep.pid, ep.active ? "active" : "idle",
                  ep.waiting.has_value() ? "+parked" : "", ep.pending.size(),
                  ep.arrival_rate.value(),
                  ep.latency != nullptr ? ep.latency->Summary().c_str() : "no-traffic");
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  totals: hot=%llu queued=%llu cold=%llu tryagain=%llu retire=%llu "
                "tx=%llu drops=%llu\n",
                static_cast<unsigned long long>(stats_.hot_dispatches),
                static_cast<unsigned long long>(stats_.queued_dispatches),
                static_cast<unsigned long long>(stats_.cold_dispatches),
                static_cast<unsigned long long>(stats_.tryagains),
                static_cast<unsigned long long>(stats_.retires),
                static_cast<unsigned long long>(stats_.responses_sent),
                static_cast<unsigned long long>(
                    stats_.drops_bad_frame + stats_.drops_no_endpoint +
                    stats_.drops_bad_args + stats_.sheds.queue));
  out += line;
  std::snprintf(line, sizeof(line),
                "  sheds: queue=%llu quota=%llu sojourn=%llu vf_quota=%llu\n",
                static_cast<unsigned long long>(stats_.sheds.queue),
                static_cast<unsigned long long>(stats_.sheds.quota),
                static_cast<unsigned long long>(stats_.sheds.sojourn),
                static_cast<unsigned long long>(stats_.sheds.vf_quota));
  out += line;
  for (size_t vf = 1; vf < vfs_.size(); ++vf) {
    const VfState& state = vfs_[vf];
    std::snprintf(line, sizeof(line),
                  "  vf=%zu name=%s endpoints=%llu rx=%llu tx=%llu "
                  "vf_quota_sheds=%llu rss=%llu\n",
                  vf, state.config.name.c_str(),
                  static_cast<unsigned long long>(state.stats.endpoints),
                  static_cast<unsigned long long>(state.stats.rx_requests),
                  static_cast<unsigned long long>(state.stats.responses),
                  static_cast<unsigned long long>(state.stats.sheds.vf_quota),
                  static_cast<unsigned long long>(state.stats.rss_steered));
    out += line;
  }
  return out;
}

const Histogram& LauberhornNic::EndpointLatency(uint32_t endpoint) {
  Endpoint& ep = endpoints_[endpoint];
  if (ep.latency == nullptr) {
    ep.latency = std::make_unique<Histogram>();
  }
  return *ep.latency;
}

}  // namespace lauberhorn
