// The Linux-baseline RPC stack (Fig. 5 left, §2 steps 1-12).
//
// On top of the DMA NIC: MSI-X interrupt -> top half -> softirq (NAPI) thread
// polls the ring, does protocol processing, socket lookup, and wakeup; the
// scheduler places the service process on a core; the worker performs the
// recv syscall + copyout, software unmarshalling, the handler, marshalling,
// and a send syscall back through the driver. Every stage charges the
// corresponding OsCostModel cost on a real simulated core.
#ifndef SRC_NIC_LINUX_STACK_H_
#define SRC_NIC_LINUX_STACK_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/headers.h"
#include "src/nic/dma_nic.h"
#include "src/os/kernel.h"
#include "src/overload/overload.h"
#include "src/proto/cipher.h"
#include "src/proto/dedup.h"
#include "src/proto/rpc_message.h"
#include "src/proto/service.h"
#include "src/stats/span.h"

namespace lauberhorn {

class LinuxRpcStack {
 public:
  struct Config {
    size_t napi_budget = 64;
    int worker_threads_per_service = 1;
    // Software transport crypto (no NIC offload on the Fig. 1 device).
    bool encrypt_rpcs = false;
    uint64_t crypto_root_key = 0;
    // At-most-once execution: drop/replay duplicate (flow, request id) pairs
    // instead of running the handler twice (software analog of the
    // Lauberhorn NIC's dedup stage, so the comparison is apples-to-apples).
    bool dedup = true;
    // Overload admission at the softirq/socket boundary: the same policy the
    // Lauberhorn NIC runs in hardware, but every shed (decode + reply TX)
    // costs kernel CPU on the softirq core — that cost difference is the
    // point of the three-way comparison.
    AdmissionConfig admission;
  };

  // `dedup` is the server's at-most-once table (owned by the Machine).
  LinuxRpcStack(Simulator& sim, Kernel& kernel, DmaNic& nic, DmaNicDriver& driver,
                Msix& msix, ServiceRegistry& services, RpcDedupCache& dedup,
                Config config);

  // Creates the process, worker thread(s), and socket for a service.
  void RegisterServiceProcess(const ServiceDef& service);

  // Installs MSI-X handlers and creates the per-queue softirq threads.
  void Start();

  // Per-request span tracing: socket enqueue/dequeue and handler start/end.
  void set_span_collector(SpanCollector* spans) { spans_ = spans; }

  uint64_t rpcs_completed() const { return rpcs_completed_; }
  uint64_t bad_requests() const { return bad_requests_; }
  uint64_t dup_drops_in_flight() const {
    return dedup_.stats().duplicates_in_flight;
  }
  uint64_t dup_replays() const { return dedup_.stats().duplicates_replayed; }
  // Overload sheds by reason, and the kernel CPU charged for shedding
  // (decode + kOverloaded reply TX on the softirq core).
  const ShedCounts& sheds() const { return sheds_; }

 private:
  struct ServiceState {
    const ServiceDef* def = nullptr;
    Process* process = nullptr;
    std::vector<Thread*> workers;
    Socket* socket = nullptr;
    size_t next_worker = 0;   // round-robin message distribution
    // Overload admission (per service): quota bucket + CoDel gate over the
    // socket receive queue.
    TokenBucket quota;
    SojournGate sojourn;
  };

  void NapiPoll(uint32_t q, Core& core);
  void PostWorkerWork(ServiceState& state);
  void WorkerStep(ServiceState& state, Core& core);
  // Admission decision for one frame headed to `state`'s socket. The signal
  // is per-service (socket depth, quota, socket sojourn); delay upstream of
  // the softirq is bounded by the device ring/FIFO sizes, where a commodity
  // NIC can only tail-drop silently.
  ShedReason AdmissionCheck(ServiceState& state);
  // Builds and transmits the kOverloaded reply for a shed frame; returns the
  // kernel CPU cost to charge on the softirq core.
  Duration ShedFrame(uint32_t q, const ParsedFrame& frame, ShedReason reason);

  Simulator& sim_;
  Kernel& kernel_;
  DmaNic& nic_;
  DmaNicDriver& driver_;
  Msix& msix_;
  ServiceRegistry& services_;
  Config config_;
  SpanCollector* spans_ = nullptr;
  std::vector<Thread*> softirq_threads_;  // one per queue
  std::unordered_map<uint16_t, std::unique_ptr<ServiceState>> by_port_;
  RpcDedupCache& dedup_;
  uint64_t rpcs_completed_ = 0;
  uint64_t bad_requests_ = 0;
  ShedCounts sheds_;
};

}  // namespace lauberhorn

#endif  // SRC_NIC_LINUX_STACK_H_
