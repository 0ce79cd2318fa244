// The request→reply step every server stack shares (Linux, kernel bypass,
// Lauberhorn). Each stack screens a request through its RpcDedupCache
// (src/proto/dedup), runs the method, seals, completes the dedup entry and
// frames the reply; the pieces below are that sequence's stack-neutral
// parts. They are pure: they schedule nothing and charge no cost — each stack
// charges its own marshal, crypto and handler-entry costs around them.
#ifndef SRC_NIC_SERVER_STEP_H_
#define SRC_NIC_SERVER_STEP_H_

#include <cstdint>
#include <vector>

#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/sim/time.h"

namespace lauberhorn {

// The response header answering one request. With kOverloaded it is the shed
// reply: the request was refused unexecuted.
RpcMessage ReplyTo(uint32_t service_id, uint16_t method_id, uint64_t request_id,
                   RpcStatus status = RpcStatus::kOk);

// The outcome of running one method on its marshalled arguments.
struct Invocation {
  // kOk when the handler ran; otherwise what stopped it: kNoSuchService,
  // kNoSuchMethod, or kBadArguments (the method exists, its args did not
  // unmarshal).
  RpcStatus status = RpcStatus::kOk;
  std::vector<uint8_t> payload;  // the marshalled result, when kOk
  Duration service_time = 0;     // the handler's modelled CPU time, when kOk
};

// Finds the method, unmarshals `args`, runs the handler and marshals its
// result. A null `service` answers kNoSuchService.
Invocation InvokeMethod(const ServiceDef* service, uint16_t method_id,
                        const std::vector<uint8_t>& args);

// The reply frame to a request that arrived with `eth`/`ip`/`udp`: addresses
// and ports swapped, the response ECT when the request was ECN-capable, and a
// CE mark on the request echoed as kLrpcFlagEcnEcho (the DCTCP signal).
Packet ReplyFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                  const UdpHeader& udp, RpcMessage response);

}  // namespace lauberhorn

#endif  // SRC_NIC_SERVER_STEP_H_
