#include "src/nic/bypass.h"

#include <cassert>
#include <utility>

#include "src/nic/server_step.h"

namespace lauberhorn {

BypassRuntime::BypassRuntime(Simulator& sim, Kernel& kernel, DmaNicDriver& driver,
                             ServiceRegistry& services, RpcDedupCache& dedup,
                             Config config)
    : sim_(sim),
      kernel_(kernel),
      driver_(driver),
      services_(services),
      config_(std::move(config)),
      dedup_(dedup) {
  assert(config_.cores.size() >= driver_.num_queues() &&
         "bypass needs one dedicated core per queue");
}

void BypassRuntime::Start() {
  running_ = true;
  empty_streak_.assign(driver_.num_queues(), 0);
  sojourn_.assign(driver_.num_queues(), SojournGate{});
  process_ = kernel_.CreateProcess("bypass-app");
  for (uint32_t q = 0; q < driver_.num_queues(); ++q) {
    Core& core = kernel_.core(static_cast<size_t>(config_.cores[q]));
    // The dedicated core is owned by the bypass process outright; it never
    // returns to the scheduler (the static-binding assumption of §2).
    Thread* t = kernel_.AddThread(process_, "bypass-poll-" + std::to_string(q));
    t->set_state(ThreadState::kRunning);
    core.set_current_thread(t);
    core.set_loaded_pid(process_->pid);
    sim_.Schedule(0, [this, q, &core]() { Loop(q, core); });
  }
}

void BypassRuntime::Loop(uint32_t q, Core& core) {
  if (!running_) {
    return;
  }
  std::vector<Packet> packets = driver_.Poll(q, config_.poll_batch);
  if (packets.empty()) {
    ++empty_polls_;
    const Duration step = ++empty_streak_[q] > config_.idle_backoff_after
                              ? config_.idle_poll_interval
                              : config_.poll_iteration;
    core.Run(step, CoreMode::kSpin, [this, q, &core]() { Loop(q, core); });
    return;
  }
  empty_streak_[q] = 0;
  core.Run(config_.rx_batch_fixed, CoreMode::kUser,
           [this, q, &core, packets = std::move(packets)]() mutable {
             ProcessBatch(q, core, std::move(packets), 0);
           });
}

void BypassRuntime::ProcessBatch(uint32_t q, Core& core, std::vector<Packet> packets,
                                 size_t index) {
  if (index >= packets.size()) {
    Loop(q, core);
    return;
  }
  const OsCostModel& costs = kernel_.costs();
  Packet& packet = packets[index];
  const auto frame = ParseUdpFrame(packet);
  if (!frame.has_value()) {
    ++bad_requests_;
    core.Run(config_.per_packet, CoreMode::kUser,
             [this, q, &core, packets = std::move(packets), index]() mutable {
               ProcessBatch(q, core, std::move(packets), index + 1);
             });
    return;
  }
  auto request = DecodeRpcMessage(frame->payload);
  const ServiceDef* service =
      request.has_value() ? services_.FindByPort(frame->udp.dst_port) : nullptr;

  Duration work = config_.per_packet;

  if (config_.admission.enabled && request.has_value() &&
      request->kind == MessageKind::kRequest && service != nullptr) {
    const ShedReason reason =
        AdmissionCheck(q, service->service_id, packets.size() - index);
    if (reason != ShedReason::kNone) {
      sheds_.Count(reason);
      // DCTCP fallback (§15): ReplyFrame echoes the fabric's CE mark even
      // on a shed.
      const Packet out =
          ReplyFrame(frame->eth, frame->ip, frame->udp,
                     ReplyTo(request->service_id, request->method_id,
                             request->request_id, RpcStatus::kOverloaded));
      // Saying "no" skips crypto, dedup, and the handler, but still burns
      // user CPU on the polling core for the decode + reply TX.
      work += config_.tx_per_packet;
      sheds_.cpu += work;
      core.Run(work, CoreMode::kUser,
               [this, q, &core, out, packets = std::move(packets), index]() mutable {
                 driver_.Transmit(q, out.bytes);
                 ProcessBatch(q, core, std::move(packets), index + 1);
               });
      return;
    }
  }
  if (request.has_value() && service != nullptr && config_.encrypt_rpcs) {
    work += costs.SwCryptoCost(request->payload.size());
    auto opened = OpenPayload(DeriveKey(config_.crypto_root_key, service->service_id),
                              request->payload);
    if (!opened.has_value()) {
      request.reset();  // authentication failure: treated as a bad request
    } else {
      request->payload = std::move(*opened);
    }
  }
  if (!request.has_value() || request->kind != MessageKind::kRequest) {
    ++bad_requests_;
    core.Run(work, CoreMode::kUser,
             [this, q, &core, packets = std::move(packets), index]() mutable {
               ProcessBatch(q, core, std::move(packets), index + 1);
             });
    return;
  }
  RpcMessage response =
      ReplyTo(request->service_id, request->method_id, request->request_id);

  // At-most-once admission, after decryption/decode validated the copy.
  bool replay = false;
  uint64_t flow = 0;
  if (config_.dedup) {
    flow = DedupFlowKey(frame->ip.src, frame->udp.src_port);
    const RpcDedupCache::Screened screen = dedup_.Screen(flow, request->request_id);
    if (screen.verdict == RpcDedupCache::Verdict::kInFlight) {
      core.Run(work, CoreMode::kUser,
               [this, q, &core, packets = std::move(packets), index]() mutable {
                 ProcessBatch(q, core, std::move(packets), index + 1);
               });
      return;
    }
    if (screen.verdict == RpcDedupCache::Verdict::kCompleted) {
      response = *screen.cached;  // already sealed; resend as-is
      replay = true;
    }
  }

  if (!replay) {
    if (spans_ != nullptr) {
      // Run-to-completion: admission, dispatch, pickup, and handler entry
      // all collapse into this single poll-loop decision point.
      spans_->Record(request->request_id, SpanStage::kAdmitted, sim_.Now());
      spans_->Record(request->request_id, SpanStage::kDispatched, sim_.Now());
      spans_->Record(request->request_id, SpanStage::kDelivered, sim_.Now());
      spans_->Record(request->request_id, SpanStage::kHandlerStart, sim_.Now());
      spans_->Annotate(request->request_id, SpanDispatch::kPolled, q);
    }
    Invocation result = InvokeMethod(service, request->method_id, request->payload);
    response.status = result.status;
    response.payload = std::move(result.payload);
    if (result.status == RpcStatus::kOk || result.status == RpcStatus::kBadArguments) {
      work += costs.SwMarshalCost(request->payload.size());  // software unmarshal
    }
    if (result.status == RpcStatus::kOk) {
      work += result.service_time + costs.SwMarshalCost(response.payload.size());
    }
    if (config_.encrypt_rpcs && !response.payload.empty() && service != nullptr) {
      work += costs.SwCryptoCost(response.payload.size());
      response.payload =
          SealPayload(DeriveKey(config_.crypto_root_key, service->service_id),
                      response.request_id ^ 0x5a5a, response.payload);
    }
    if (config_.dedup) {
      dedup_.Complete(flow, response.request_id, response);
    }
  }
  work += config_.tx_per_packet;

  // DCTCP fallback (§15): ReplyFrame echoes the CE mark after dedup caching,
  // so the cached response does not fossilize one request's congestion
  // observation.
  const Packet out = ReplyFrame(frame->eth, frame->ip, frame->udp, std::move(response));

  const uint64_t request_id = request->request_id;
  core.Run(work, CoreMode::kUser,
           [this, q, &core, out, replay, request_id, packets = std::move(packets),
            index]() mutable {
             if (spans_ != nullptr && !replay) {
               spans_->Record(request_id, SpanStage::kHandlerEnd, sim_.Now());
             }
             driver_.Transmit(q, out.bytes);
             if (!replay) {
               ++rpcs_completed_;
             }
             ProcessBatch(q, core, std::move(packets), index + 1);
           });
}

ShedReason BypassRuntime::AdmissionCheck(uint32_t q, uint32_t service_id,
                                         size_t batch_remaining) {
  const SimTime now = sim_.Now();
  // Ring occupancy: completed-but-unharvested descriptors plus the tail of
  // the current batch still waiting for this core.
  const size_t occupancy = driver_.RxOccupancy(q) + batch_remaining;
  if (config_.admission.queue_depth_limit > 0 &&
      occupancy >= config_.admission.queue_depth_limit) {
    return ShedReason::kQueueFull;
  }
  if (config_.admission.quota_rps > 0) {
    TokenBucket& bucket =
        service_quota_
            .try_emplace(service_id, config_.admission.quota_rps,
                         config_.admission.quota_burst)
            .first->second;
    if (!bucket.TryTake(now)) {
      return ShedReason::kQuota;
    }
  }
  // No timestamps in the ring: estimate the head's sojourn as occupancy
  // times the per-request driver cost floor (an underestimate once handlers
  // run, so this gate is conservative — the depth bound backstops it).
  const Duration estimated =
      static_cast<Duration>(occupancy) *
      (config_.per_packet + config_.tx_per_packet);
  if (sojourn_[q].ShouldShed(now, estimated, config_.admission.sojourn)) {
    return ShedReason::kSojourn;
  }
  return ShedReason::kNone;
}

}  // namespace lauberhorn
