#include "src/nic/bypass.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "src/nic/server_step.h"

namespace lauberhorn {

BypassRuntime::BypassRuntime(Simulator& sim, Kernel& kernel, DmaNicDriver& driver,
                             ServiceRegistry& services, RpcDedupCache* dedup,
                             std::optional<uint64_t> crypto_root_key,
                             const AdmissionConfig& admission, Config config)
    : sim_(sim),
      kernel_(kernel),
      driver_(driver),
      services_(services),
      dedup_(dedup),
      crypto_root_key_(crypto_root_key),
      admission_(admission),
      config_(std::move(config)) {
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
  Packet& packet = packets[index];
  const auto frame = ParseUdpFrame(packet);
  auto request =
      frame.has_value() ? DecodeRpcMessage(frame->payload) : std::optional<RpcMessage>();
  // A dropped packet still costs `work` on this core before the next one.
  auto drop = [this, q, &core, &packets, index](Duration work) {
    core.Run(work, CoreMode::kUser,
             [this, q, &core, packets = std::move(packets), index]() mutable {
               ProcessBatch(q, core, std::move(packets), index + 1);
             });
  };
  if (!request.has_value()) {
    ++bad_requests_;
    drop(config_.per_packet);
    return;
  }
  const ServiceDef* service = services_.FindByPort(frame->udp.dst_port);
  Duration work = config_.per_packet;

  if (admission_.enabled && request->kind == MessageKind::kRequest && service != nullptr) {
    const SimTime now = sim_.Now();
    // Ring occupancy: completed-but-unharvested descriptors plus the tail of
    // the current batch still waiting for this core. No timestamps in the
    // ring: the head's sojourn is estimated as occupancy times the
    // per-request driver cost floor (an underestimate once handlers run, so
    // this gate is conservative — the depth bound backstops it). The ring
    // has no bound of its own here: overflow drops at the device.
    const size_t occupancy = driver_.RxOccupancy(q) + (packets.size() - index);
    TokenBucket& quota =
        service_quota_
            .try_emplace(service->service_id, admission_.quota_rps, admission_.quota_burst)
            .first->second;
    const ShedReason reason = AdmissionVerdict(
        occupancy, SIZE_MAX, quota, sojourn_[q],
        static_cast<Duration>(occupancy) * (config_.per_packet + config_.tx_per_packet),
        now, admission_);
    if (reason != ShedReason::kNone) {
      sheds_.Count(reason);
      // Saying "no" skips crypto, dedup, and the handler, but still burns
      // user CPU on the polling core for the decode + reply TX. DCTCP
      // fallback (§15): ReplyFrame echoes the fabric's CE mark even on a shed.
      work += config_.tx_per_packet;
      sheds_.cpu += work;
      Packet out = ReplyFrame(frame->eth, frame->ip, frame->udp,
                              ReplyTo(request->service_id, request->method_id,
                                      request->request_id, RpcStatus::kOverloaded));
      core.Run(work, CoreMode::kUser,
               [this, q, &core, out = std::move(out), packets = std::move(packets),
                index]() mutable {
                 driver_.Transmit(q, out.bytes);
                 ProcessBatch(q, core, std::move(packets), index + 1);
               });
      return;
    }
  }
  Served served = ServeRequest(std::move(*request), service,
                               DedupFlowKey(frame->ip.src, frame->udp.src_port), dedup_,
                               crypto_root_key_, kernel_.costs());
  work += served.user_cost;
  if (served.verdict == ServeVerdict::kBadRequest) {
    ++bad_requests_;
  }
  if (served.verdict == ServeVerdict::kBadRequest ||
      served.verdict == ServeVerdict::kInFlight) {
    drop(work);
    return;
  }
  const bool replay = served.verdict == ServeVerdict::kReplay;
  const uint64_t request_id = served.response.request_id;
  if (spans_ != nullptr && !replay) {
    // Run-to-completion: admission, dispatch, pickup, and handler entry
    // all collapse into this single poll-loop decision point.
    spans_->Record(request_id, SpanStage::kAdmitted, sim_.Now());
    spans_->Record(request_id, SpanStage::kDispatched, sim_.Now());
    spans_->Record(request_id, SpanStage::kDelivered, sim_.Now());
    spans_->Record(request_id, SpanStage::kHandlerStart, sim_.Now());
    spans_->Annotate(request_id, SpanDispatch::kPolled, q);
  }
  work += config_.tx_per_packet;

  // DCTCP fallback (§15): ReplyFrame echoes the CE mark after dedup caching,
  // so the cached response does not fossilize one request's congestion
  // observation.
  Packet out = ReplyFrame(frame->eth, frame->ip, frame->udp, std::move(served.response));
  core.Run(work, CoreMode::kUser,
           [this, q, &core, out = std::move(out), replay, request_id,
            packets = std::move(packets), index]() mutable {
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

}  // namespace lauberhorn
