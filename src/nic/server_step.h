// The request→reply step every server stack shares (Linux, kernel bypass,
// Lauberhorn). The pieces below are pure: they schedule nothing and charge
// nothing. The software stacks run a request through ServeRequest and charge
// its user cost plus their own per-packet costs around it; the Lauberhorn
// runtime, whose NIC already opened, screened and unmarshalled the request,
// uses InvokeMethod and ReplyTo directly.
#ifndef SRC_NIC_SERVER_STEP_H_
#define SRC_NIC_SERVER_STEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/headers.h"
#include "src/net/packet.h"
#include "src/os/cost_model.h"
#include "src/proto/dedup.h"
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

// What ServeRequest did with one request.
enum class ServeVerdict {
  kBadRequest,  // not a request, or its sealed payload failed to open
  kInFlight,    // a copy of it is executing: drop this one unanswered
  kReplay,      // it executed before: resend the cached (sealed) response
  kExecuted,    // screened in and answered: the handler ran, or the status
                // says why it could not (no such service/method, bad args)
};

struct Served {
  ServeVerdict verdict = ServeVerdict::kBadRequest;
  RpcMessage response;     // the sealed response, for kReplay and kExecuted
  // Software CPU time the step stands for: opening the payload whenever
  // there is a key to open it with, and on kExecuted also unmarshalling, the
  // handler's service time, marshalling and sealing.
  Duration user_cost = 0;
};

// The software stacks' (Linux, kernel bypass) request→reply step: opens the
// payload with `service`'s key, screens (flow, request id) through `dedup`,
// runs the method, seals the result and completes the dedup entry. `service`
// may be null (answered kNoSuchService, nothing to open or seal);
// `dedup` null turns the screen off; an unset `crypto_root_key` means RPCs
// travel in the clear. The screen runs after the open, so a corrupted copy
// never parks an in-flight entry, and Complete runs after the seal, so a
// replay resends the sealed bytes.
Served ServeRequest(RpcMessage request, const ServiceDef* service, uint64_t flow,
                    RpcDedupCache* dedup, std::optional<uint64_t> crypto_root_key,
                    const OsCostModel& costs);

// The reply frame to a request that arrived with `eth`/`ip`/`udp`: addresses
// and ports swapped, the response ECT when the request was ECN-capable, and a
// CE mark on the request echoed as kLrpcFlagEcnEcho (the DCTCP signal).
Packet ReplyFrame(const EthernetHeader& eth, const Ipv4Header& ip,
                  const UdpHeader& udp, RpcMessage response);

}  // namespace lauberhorn

#endif  // SRC_NIC_SERVER_STEP_H_
