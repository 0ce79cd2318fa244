#include "src/nic/server_step.h"

#include <utility>

#include "src/proto/cipher.h"
#include "src/proto/marshal.h"

namespace lauberhorn {

RpcMessage ReplyTo(uint32_t service_id, uint16_t method_id, uint64_t request_id,
                   RpcStatus status) {
  RpcMessage response;
  response.kind = MessageKind::kResponse;
  response.service_id = service_id;
  response.method_id = method_id;
  response.request_id = request_id;
  response.status = status;
  return response;
}

Invocation InvokeMethod(const ServiceDef* service, uint16_t method_id,
                        const std::vector<uint8_t>& args) {
  Invocation out;
  const MethodDef* method = service != nullptr ? service->FindMethod(method_id) : nullptr;
  std::vector<WireValue> values;
  if (service == nullptr) {
    out.status = RpcStatus::kNoSuchService;
  } else if (method == nullptr) {
    out.status = RpcStatus::kNoSuchMethod;
  } else if (!UnmarshalArgs(method->request_sig, args, values)) {
    out.status = RpcStatus::kBadArguments;
  } else {
    MarshalArgs(method->response_sig, method->handler(values), out.payload);
    out.service_time = method->service_time(values);
  }
  return out;
}

Served ServeRequest(RpcMessage request, const ServiceDef* service, uint64_t flow,
                    RpcDedupCache* dedup, std::optional<uint64_t> crypto_root_key,
                    const OsCostModel& costs) {
  Served out;
  std::optional<uint64_t> key;
  if (crypto_root_key.has_value() && service != nullptr) {
    key = DeriveKey(*crypto_root_key, service->service_id);
    out.user_cost += costs.SwCryptoCost(request.payload.size());
    auto opened = OpenPayload(*key, request.payload);
    if (!opened.has_value()) {
      return out;  // authentication failure: a bad request
    }
    request.payload = std::move(*opened);
  }
  if (request.kind != MessageKind::kRequest) {
    return out;
  }
  if (dedup != nullptr) {
    const RpcDedupCache::Screened screen = dedup->Screen(flow, request.request_id);
    if (screen.verdict == RpcDedupCache::Verdict::kInFlight) {
      out.verdict = ServeVerdict::kInFlight;
      return out;
    }
    if (screen.verdict == RpcDedupCache::Verdict::kCompleted) {
      out.verdict = ServeVerdict::kReplay;
      out.response = *screen.cached;
      return out;
    }
  }
  Invocation result = InvokeMethod(service, request.method_id, request.payload);
  if (result.status == RpcStatus::kOk || result.status == RpcStatus::kBadArguments) {
    out.user_cost += costs.SwMarshalCost(request.payload.size());  // unmarshal
  }
  if (result.status == RpcStatus::kOk) {
    out.user_cost += result.service_time + costs.SwMarshalCost(result.payload.size());
  }
  if (key.has_value() && !result.payload.empty()) {
    out.user_cost += costs.SwCryptoCost(result.payload.size());
    result.payload = SealPayload(*key, request.request_id ^ 0x5a5a, result.payload);
  }
  out.verdict = ServeVerdict::kExecuted;
  out.response =
      ReplyTo(request.service_id, request.method_id, request.request_id, result.status);
  out.response.payload = std::move(result.payload);
  if (dedup != nullptr) {
    dedup->Complete(flow, request.request_id, out.response);
  }
  return out;
}

Packet ReplyFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                  const UdpHeader& udp, RpcMessage response) {
  if (ip.ecn == kEcnCe) {
    response.flags |= kLrpcFlagEcnEcho;
  }
  std::vector<uint8_t> payload;
  EncodeRpcMessage(response, payload);
  EthernetHeader reply_eth;
  reply_eth.dst = eth.src;
  reply_eth.src = eth.dst;
  Ipv4Header reply_ip;
  reply_ip.src = ip.dst;
  reply_ip.dst = ip.src;
  reply_ip.ecn = ip.ecn != kEcnNotEct ? kEcnEct0 : kEcnNotEct;
  UdpHeader reply_udp;
  reply_udp.src_port = udp.dst_port;
  reply_udp.dst_port = udp.src_port;
  return BuildUdpFrame(reply_eth, reply_ip, reply_udp, payload);
}

}  // namespace lauberhorn
