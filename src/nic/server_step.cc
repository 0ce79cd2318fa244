#include "src/nic/server_step.h"

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
